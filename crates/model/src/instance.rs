//! Instances: indexed, deduplicated, arena-backed sets of ground atoms.
//!
//! An [`Instance`] is the paper's *instance over a schema* — a set of atoms
//! with constants and nulls. A *database* is an instance containing only
//! facts (constants). Instances are append-only (the chase only ever adds
//! atoms) and keep insertion order, so a chase derivation's rounds map to
//! contiguous index ranges, enabling semi-naive evaluation.
//!
//! # Data layout
//!
//! The chase hot loop reads, hashes, and inserts atoms millions of times,
//! so the layout is optimized for that:
//!
//! * **Argument arena.** All argument tuples live in one flat `Vec<Term>`
//!   pool; an atom is a `(pred, offset-range)` view ([`AtomRef`]). No
//!   per-atom `Box`, and scans touch contiguous memory.
//! * **Single-copy dedup.** A private open-addressing table maps atom
//!   hashes to indexes; insertion hashes the candidate tuple *in place*
//!   (before copying anything) and appends to the pool only when new.
//!   Duplicate inserts — the overwhelming majority late in a chase —
//!   allocate nothing.
//! * **Dense two-level index.** `by_pred[pred]` holds the per-predicate
//!   posting list plus *position-aware* term postings
//!   (`(position, term) → posting list`) used by the homomorphism search
//!   to narrow candidates once any variable of a pattern atom is bound.
//!   Keying on the argument position keeps a join like transitive
//!   closure from scanning candidates that mention the bound term only
//!   in the wrong argument slot (an any-position list mixes both slots
//!   and roughly doubles the candidate work). Term postings live in
//!   **dense lanes** per `(position, term kind)` — indexed by the
//!   term's interned id, not hashed — with a hash-map overflow for
//!   sparse id windows (`DenseLane`); the common posting update (the
//!   hottest serial work in the chase commit loop) is a vector index.
//!
//! Posting lists are ascending in atom index, which lets the semi-naive
//! search split them into old/delta regions with one binary search.
//!
//! The chase commit loop drives the batch-append surface:
//! [`Instance::locate_terms_hashed`] (snapshot containment probe that
//! yields a resumable [`ProbeHint`] on a miss),
//! [`Instance::insert_terms_hashed`] (hinted append, eager indexing),
//! and [`Instance::extend_terms`]/[`Instance::extend_terms_hinted`] +
//! [`Instance::splice_index`] (hinted append with posting maintenance
//! deferred into an [`IndexDelta`] and spliced once per batch).

use std::ops::Deref;

use crate::atom::{Atom, AtomRef};
use crate::chunk::{ChunkedArena, SpillArena};
use crate::hash::{hash_atom, term_code, FxHashMap, FxHashSet, TagProbe, TagTable};
use crate::symbols::{ConstId, PredId};
use crate::term::Term;

/// Filler for chunk-boundary padding in the term pool. Pads sit in the
/// gaps between atom ranges and are never reachable through an
/// [`AtomRef`] (all iteration is per-atom-range).
const PAD_TERM: Term = Term::Const(ConstId(0));

/// Index of an atom within an [`Instance`] (insertion order).
pub type AtomIdx = u32;

/// How many atom indexes a term posting list stores inline before
/// spilling to the heap. Most terms of a chase instance occur in only a
/// couple of atoms (fresh nulls especially), so inlining removes a heap
/// allocation per new term.
const POSTING_INLINE: usize = 2;

/// A posting list with small-size inline storage, 16 bytes flat: the
/// spill storage lives in a per-predicate arena ([`PredIndex::spills`])
/// referenced by slot, not in an inline `Vec` (24 bytes of pointer
/// baggage per map entry). The posting map's buckets shrink from 48 to
/// 24 bytes, which halves rehash traffic and cache misses in the chase
/// commit loop — the hottest serial code in the system.
#[derive(Debug, Default, Clone)]
struct Postings {
    len: u32,
    inline: [AtomIdx; POSTING_INLINE],
    /// Slot in the owning [`PredIndex::spills`] arena once `len`
    /// exceeds the inline capacity.
    spill: u32,
}

impl Postings {
    fn push(&mut self, idx: AtomIdx, spills: &mut SpillArena<AtomIdx>) {
        let n = self.len as usize;
        if n < POSTING_INLINE {
            self.inline[n] = idx;
        } else if n == POSTING_INLINE {
            let mut seed = [idx; POSTING_INLINE + 1];
            seed[..POSTING_INLINE].copy_from_slice(&self.inline);
            self.spill = spills.alloc(&seed);
        } else {
            spills.push(self.spill, idx);
        }
        self.len += 1;
    }

    fn as_slice<'a>(&'a self, spills: &'a SpillArena<AtomIdx>) -> &'a [AtomIdx] {
        let n = self.len as usize;
        if n <= POSTING_INLINE {
            &self.inline[..n]
        } else {
            spills.list(self.spill)
        }
    }
}

/// A dense posting lane: the posting lists of one argument position and
/// one term *kind* (constants or nulls), indexed by `id - base` instead
/// of hashed. Both id spaces are interned densely and a chase touches
/// them in near-ascending order, so the overwhelmingly common posting
/// update — the hottest serial work in the chase commit loop — becomes
/// a vector index instead of a hash-map probe. Windows that turn out
/// sparse (a predicate touching a few scattered ids) migrate to the
/// [`PredIndex::by_pos_term`] overflow map and disable the lane, so
/// memory stays within a small factor of the entries actually stored.
#[derive(Debug, Default, Clone)]
struct DenseLane {
    /// First id of the window (valid once `posts` is nonempty).
    base: u32,
    /// Posting lists for ids `base ..= base + posts.len() - 1`.
    posts: Vec<Postings>,
    /// Occupied window slots (occupancy guard input).
    used: u32,
    /// Sparse windows migrate to the overflow map and disable the lane.
    disabled: bool,
}

/// A sparse window wider than this (and under-occupied ×4) migrates to
/// the overflow map.
const LANE_SPARSE_MIN: usize = 1024;

/// A lane rebases in place (prepending empty slots) for ids up to this
/// far below its window; anything farther disables it instead.
const LANE_REBASE_MAX: u32 = 1024;

impl DenseLane {
    #[inline]
    fn slice<'a>(&'a self, id: u32, spills: &'a SpillArena<AtomIdx>) -> &'a [AtomIdx] {
        if id < self.base {
            return &[];
        }
        self.posts
            .get((id - self.base) as usize)
            .map(|p| p.as_slice(spills))
            .unwrap_or(&[])
    }
}

/// Per-predicate posting lists: all atoms of the predicate, plus one list
/// per `(argument position, term)` pair occurring in them — dense lanes
/// per `(position, term kind)` with a hash-map overflow.
#[derive(Debug, Default, Clone)]
struct PredIndex {
    all: Vec<AtomIdx>,
    /// Arity of the predicate (fixed by the schema), recorded on first
    /// insert so any-position queries can sweep the positions.
    arity: u32,
    /// `lanes[2 * position + kind]`, kind 0 = constants, 1 = nulls.
    lanes: Vec<DenseLane>,
    /// Overflow: disabled lanes' entries, keyed by [`pos_term_key`] —
    /// one packed word, so the map hashes and compares a single `u64`.
    by_pos_term: FxHashMap<u64, Postings>,
    /// Spill arena for posting lists that outgrow their inline slots
    /// (shared by lanes and overflow) — chunk-backed, so it can follow
    /// the term pool out of core under `NUCHASE_INSTANCE_SPILL_DIR`.
    spills: SpillArena<AtomIdx>,
}

/// The `(kind, id)` coordinates of a ground term in the lane space.
#[inline]
fn lane_coords(t: Term) -> (usize, u32) {
    match t {
        Term::Const(c) => (0, c.0),
        Term::Null(n) => (1, n.0),
        Term::Var(_) => unreachable!("instances hold ground atoms only"),
    }
}

/// How an append maintains the per-predicate posting lists: inline
/// (small batches — the atom's data is hot) or deferred into an
/// [`IndexDelta`] for one batched [`Instance::splice_index`] pass.
enum AppendIndexing<'a> {
    Eager,
    Defer(&'a mut IndexDelta),
}

/// Posting-list maintenance for one appended atom — shared verbatim by
/// the eager path and the deferred splice, so the index cannot diverge
/// between them.
fn index_atom(by_pred: &mut Vec<PredIndex>, idx: AtomIdx, pred: PredId, args: &[Term]) {
    if by_pred.len() <= pred.index() {
        by_pred.resize_with(pred.index() + 1, PredIndex::default);
    }
    let pi = &mut by_pred[pred.index()];
    pi.all.push(idx);
    pi.arity = args.len() as u32;
    if pi.lanes.len() < 2 * args.len() {
        pi.lanes.resize_with(2 * args.len(), DenseLane::default);
    }
    // Index every argument slot: each `(position, term)` pair occurs at
    // most once per atom, and a term repeated across positions lands in
    // distinct lanes/lists.
    for (i, &t) in args.iter().enumerate() {
        let (kind, id) = lane_coords(t);
        let lane = &mut pi.lanes[2 * i + kind];
        if !lane.disabled {
            lane_push(
                lane,
                i as u32,
                kind,
                id,
                idx,
                &mut pi.by_pos_term,
                &mut pi.spills,
            );
        } else {
            pi.by_pos_term
                .entry(pos_term_key(i as u32, t))
                .or_default()
                .push(idx, &mut pi.spills);
        }
    }
}

/// Appends to a live dense lane, growing or rebasing its window — and
/// migrating the lane to the overflow map when the window goes sparse
/// (the id space the predicate touches at this position is scattered,
/// so dense storage would waste memory). Every entry has exactly one
/// home: the lane while it is live, the map after it is disabled.
fn lane_push(
    lane: &mut DenseLane,
    pos: u32,
    kind: usize,
    id: u32,
    idx: AtomIdx,
    overflow: &mut FxHashMap<u64, Postings>,
    spills: &mut SpillArena<AtomIdx>,
) {
    if lane.posts.is_empty() {
        lane.base = id;
    }
    if id < lane.base {
        // Ids mostly ascend; a dip rebases in place — over-shifting by
        // up to the window size, so a descending run costs one
        // O(window) splice per ~window inserts (amortized O(1)), not
        // per insert. A dip past the rebase bound, or a rebase that
        // would leave the window sparse, migrates to the overflow map
        // instead.
        let dip = lane.base - id;
        let shift = dip
            .max((lane.posts.len() as u32).min(LANE_REBASE_MAX))
            .min(lane.base) as usize;
        let window_after = lane.posts.len() + shift;
        let sparse = window_after > LANE_SPARSE_MIN && (lane.used as usize) * 4 < window_after;
        if dip <= LANE_REBASE_MAX && !sparse {
            lane.posts
                .splice(0..0, std::iter::repeat_with(Postings::default).take(shift));
            lane.base -= shift as u32;
        } else {
            lane_disable(lane, pos, kind, overflow);
            overflow
                .entry(pos_kind_id_key(pos, kind, id))
                .or_default()
                .push(idx, spills);
            return;
        }
    }
    let slot = (id - lane.base) as usize;
    if slot >= lane.posts.len() {
        let window = slot + 1;
        if window > LANE_SPARSE_MIN && (lane.used as usize) * 4 < window {
            lane_disable(lane, pos, kind, overflow);
            overflow
                .entry(pos_kind_id_key(pos, kind, id))
                .or_default()
                .push(idx, spills);
            return;
        }
        lane.posts.resize_with(window, Postings::default);
    }
    let posting = &mut lane.posts[slot];
    if posting.len == 0 {
        lane.used += 1;
    }
    posting.push(idx, spills);
}

/// Migrates a lane's occupied slots into the overflow map and disables
/// it. Observable state is unchanged — only the storage home moves (the
/// spill arena is shared, so spilled lists keep their slots).
fn lane_disable(
    lane: &mut DenseLane,
    pos: u32,
    kind: usize,
    overflow: &mut FxHashMap<u64, Postings>,
) {
    let base = lane.base;
    for (k, posting) in lane.posts.drain(..).enumerate() {
        if posting.len == 0 {
            continue;
        }
        overflow.insert(pos_kind_id_key(pos, kind, base + k as u32), posting);
    }
    lane.used = 0;
    lane.disabled = true;
}

/// Packs an `(argument position, term)` posting key into one word:
/// [`term_code`] is a 34-bit injective code, leaving 30 bits of
/// position — far beyond any real arity.
#[inline]
fn pos_term_key(position: u32, term: Term) -> u64 {
    (u64::from(position) << 34) | term_code(term)
}

/// [`pos_term_key`] from lane coordinates — the same packing
/// ([`term_code`] tags constants `0b00` and nulls `0b01`), asserted in
/// the tests so the two key paths cannot drift apart.
#[inline]
fn pos_kind_id_key(position: u32, kind: usize, id: u32) -> u64 {
    (u64::from(position) << 34) | (u64::from(id) << 2) | kind as u64
}

/// An indexed, deduplicated, append-only set of ground atoms, stored in an
/// arena layout (chunked argument pool + `(pred, range)` views).
#[derive(Debug, Clone)]
pub struct Instance {
    /// Predicate of atom `i`.
    preds: Vec<PredId>,
    /// Global start of atom `i`'s argument range in `pool`.
    starts: Vec<u32>,
    /// Global end (exclusive) of atom `i`'s argument range in `pool`.
    /// Kept separately from `starts` because chunk-boundary padding can
    /// leave a gap between one atom's end and the next one's start.
    ends: Vec<u32>,
    /// The argument pool: chunked so growth never copies stored tuples
    /// and chunks can be file-backed (`NUCHASE_INSTANCE_SPILL_DIR`) for
    /// beyond-RAM instances.
    pool: ChunkedArena<Term>,
    /// Hash of atom `i` (memoized for dedup probing and table growth).
    hashes: Vec<u64>,
    /// Dedup table over all atoms.
    table: TagTable,
    /// Dense per-predicate index.
    by_pred: Vec<PredIndex>,
}

impl Default for Instance {
    fn default() -> Self {
        Instance {
            preds: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            pool: ChunkedArena::new(PAD_TERM),
            hashes: Vec::new(),
            table: TagTable::default(),
            by_pred: Vec::new(),
        }
    }
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an instance from an iterator of atoms, deduplicating.
    pub fn from_atoms(atoms: impl IntoIterator<Item = Atom>) -> Self {
        let mut inst = Self::new();
        for a in atoms {
            inst.insert(a);
        }
        inst
    }

    /// Inserts an atom; returns `Some(index)` if the atom was new, `None`
    /// if it was already present.
    pub fn insert(&mut self, atom: Atom) -> Option<AtomIdx> {
        self.insert_terms(atom.pred, &atom.args)
    }

    /// Inserts an atom given as a predicate plus argument slice — the
    /// zero-copy path used by the chase (`args` is typically a reused
    /// scratch buffer). Returns `Some(index)` if new, `None` if present.
    ///
    /// # Panics
    /// Debug-asserts that the arguments are ground: instances never hold
    /// variables.
    pub fn insert_terms(&mut self, pred: PredId, args: &[Term]) -> Option<AtomIdx> {
        let hash = hash_atom(pred, args);
        self.append_terms(pred, args, hash, None, AppendIndexing::Eager)
    }

    /// [`Instance::insert_terms`] with a caller-computed hash and an
    /// optional probe hint (see [`Instance::locate_terms_hashed`]):
    /// eager index maintenance, one pass. This is the chase commit
    /// loop's small-batch path — for a handful of atoms, interleaving
    /// the posting updates with the append (while predicate and
    /// arguments are hot) beats deferring them.
    pub fn insert_terms_hashed(
        &mut self,
        pred: PredId,
        args: &[Term],
        hash: u64,
        hint: Option<ProbeHint>,
    ) -> Option<AtomIdx> {
        self.append_terms(pred, args, hash, hint, AppendIndexing::Eager)
    }

    /// Appends an atom whose hash the caller has already computed (via
    /// [`crate::hash::hash_atom`]), **deferring posting-list maintenance**
    /// into `delta`: the atom becomes immediately visible to the dedup
    /// table ([`Instance::index_of_terms`], further `extend_terms` calls)
    /// and to positional reads ([`Instance::atom`], [`Instance::iter`]),
    /// but not to the per-predicate posting lists until
    /// [`Instance::splice_index`] runs. This is the chase commit loop's
    /// bulk-append path: a wide round's worth of inserts batches its
    /// index writes into one cache-friendly splice instead of
    /// interleaving hash map updates with appends.
    ///
    /// Returns `Some(index)` if the atom was new, `None` if present.
    ///
    /// # Panics
    /// Debug-asserts that the arguments are ground and that `hash` is the
    /// atom's true hash.
    pub fn extend_terms(
        &mut self,
        pred: PredId,
        args: &[Term],
        hash: u64,
        delta: &mut IndexDelta,
    ) -> Option<AtomIdx> {
        self.append_terms(pred, args, hash, None, AppendIndexing::Defer(delta))
    }

    /// [`Instance::extend_terms`] resuming from a [`ProbeHint`] taken
    /// against an earlier state of this instance (no atoms removed
    /// since — instances are append-only). When the dedup table has not
    /// been rehashed in between, the probe restarts at the hinted slot:
    /// the chain prefix the hint already walked is immutable, so only
    /// same-batch insertions (which land at or after the hint) are
    /// re-examined. A rehash in between falls back to the full probe.
    pub fn extend_terms_hinted(
        &mut self,
        pred: PredId,
        args: &[Term],
        hash: u64,
        hint: ProbeHint,
        delta: &mut IndexDelta,
    ) -> Option<AtomIdx> {
        self.append_terms(pred, args, hash, Some(hint), AppendIndexing::Defer(delta))
    }

    /// The append core behind every insert variant: hinted-or-full dedup
    /// probe, arena append, then eager or deferred posting maintenance.
    fn append_terms(
        &mut self,
        pred: PredId,
        args: &[Term],
        hash: u64,
        hint: Option<ProbeHint>,
        indexing: AppendIndexing<'_>,
    ) -> Option<AtomIdx> {
        debug_assert!(
            args.iter().all(|t| t.is_ground()),
            "instances hold ground atoms only"
        );
        debug_assert_eq!(hash, hash_atom(pred, args), "caller-computed hash");
        // A hint is honored only while the table keeps the capacity it
        // was taken under and this insertion cannot grow it mid-probe;
        // otherwise grow first (so the vacant slot stays valid) and walk
        // the full chain.
        let hinted = hint.filter(|h| {
            self.table.slot_count() as u32 == h.slot_count && !self.table.insert_would_grow()
        });
        if hinted.is_none() {
            self.table.reserve_one(&self.hashes);
        }
        let vacant = {
            let (preds, starts, ends, pool) = (&self.preds, &self.starts, &self.ends, &self.pool);
            let eq = |idx: u32| {
                let i = idx as usize;
                preds[i] == pred && pool.get(starts[i], ends[i] - starts[i]) == args
            };
            let probe = match hinted {
                Some(h) => self.table.probe_at(h.slot as usize, hash, eq),
                None => self.table.probe(hash, eq),
            };
            match probe {
                TagProbe::Found(_) => return None,
                TagProbe::Vacant(slot) => slot,
            }
        };
        let idx = self.preds.len() as AtomIdx;
        let start = self.pool.push_slice(args);
        self.starts.push(start);
        self.ends.push(start + args.len() as u32);
        self.preds.push(pred);
        self.hashes.push(hash);
        self.table.fill(vacant, hash, idx);
        match indexing {
            AppendIndexing::Eager => index_atom(&mut self.by_pred, idx, pred, args),
            AppendIndexing::Defer(delta) => delta.pending.push(idx),
        }
        Some(idx)
    }

    /// Appends an atom the caller has just probed **absent** via
    /// [`Instance::locate_terms_hashed`] against this very instance
    /// state, reusing the returned [`ProbeHint`]: while the hint is
    /// still valid (no rehash since the probe — the recorded capacity
    /// matches — and this insertion does not grow the table) the probe
    /// chain is *not* re-walked; the hinted vacant slot is re-verified
    /// in O(1) and filled directly. A stale hint (an interleaving grow)
    /// falls back to the full probe. Indexing is eager — this is the
    /// fused micro-round insert of the chase, where a round's handful
    /// of atoms is far below any deferred-splice payoff.
    ///
    /// Returns the new atom's index. The atom **must** be absent (that
    /// is what the preceding locate established); inserting a present
    /// atom through this method would duplicate it.
    ///
    /// # Panics
    /// Debug-asserts groundness, the caller-computed hash, and absence.
    pub fn insert_new_terms_hinted(
        &mut self,
        pred: PredId,
        args: &[Term],
        hash: u64,
        hint: ProbeHint,
    ) -> AtomIdx {
        debug_assert!(
            args.iter().all(|t| t.is_ground()),
            "instances hold ground atoms only"
        );
        debug_assert_eq!(hash, hash_atom(pred, args), "caller-computed hash");
        debug_assert!(
            self.find_hashed(pred, args, hash).is_none(),
            "caller located the atom absent"
        );
        let hinted =
            self.table.slot_count() as u32 == hint.slot_count && !self.table.insert_would_grow();
        if !hinted {
            self.table.reserve_one(&self.hashes);
        }
        // The atom is absent, so `eq` can be constant false; the hinted
        // walk re-checks the remembered slot and returns it immediately
        // while it is still vacant.
        let probe = if hinted {
            self.table.probe_at(hint.slot as usize, hash, |_| false)
        } else {
            self.table.probe(hash, |_| false)
        };
        let vacant = match probe {
            TagProbe::Vacant(slot) => slot,
            TagProbe::Found(_) => unreachable!("probe eq is constant false"),
        };
        let idx = self.preds.len() as AtomIdx;
        let start = self.pool.push_slice(args);
        self.starts.push(start);
        self.ends.push(start + args.len() as u32);
        self.preds.push(pred);
        self.hashes.push(hash);
        self.table.fill(vacant, hash, idx);
        index_atom(&mut self.by_pred, idx, pred, args);
        idx
    }

    fn find_hashed(&self, pred: PredId, args: &[Term], hash: u64) -> Option<AtomIdx> {
        self.table.find(hash, |idx| {
            let a = self.atom(idx);
            a.pred == pred && a.args == args
        })
    }

    /// Splices the posting-list updates deferred by
    /// [`Instance::extend_terms`] — one pass over the batch, in ascending
    /// atom order, producing indexes identical to eager
    /// [`Instance::insert_terms`] maintenance. Drains `delta`.
    pub fn splice_index(&mut self, delta: &mut IndexDelta) {
        for idx in delta.pending.drain(..) {
            let i = idx as usize;
            let args = self.pool.get(self.starts[i], self.ends[i] - self.starts[i]);
            index_atom(&mut self.by_pred, idx, self.preds[i], args);
        }
    }

    /// Membership test.
    pub fn contains(&self, atom: &Atom) -> bool {
        self.index_of(atom).is_some()
    }

    /// Membership test for a borrowed atom view.
    pub fn contains_ref(&self, atom: AtomRef<'_>) -> bool {
        self.find_hashed(atom.pred, atom.args, hash_atom(atom.pred, atom.args))
            .is_some()
    }

    /// The index of an atom, if present.
    pub fn index_of(&self, atom: &Atom) -> Option<AtomIdx> {
        self.find_hashed(atom.pred, &atom.args, hash_atom(atom.pred, &atom.args))
    }

    /// The index of an atom given as predicate + argument slice, if
    /// present (allocation-free variant of [`Instance::index_of`]).
    pub fn index_of_terms(&self, pred: PredId, args: &[Term]) -> Option<AtomIdx> {
        self.find_hashed(pred, args, hash_atom(pred, args))
    }

    /// [`Instance::index_of_terms`] with a caller-computed hash (the
    /// resolve stage of the chase hashes each head atom once and reuses
    /// it for the snapshot containment pre-check here and the commit-time
    /// append).
    pub fn index_of_terms_hashed(&self, pred: PredId, args: &[Term], hash: u64) -> Option<AtomIdx> {
        debug_assert_eq!(hash, hash_atom(pred, args), "caller-computed hash");
        self.find_hashed(pred, args, hash)
    }

    /// Containment probe that, on a miss, returns a **probe hint** for a
    /// later [`Instance::extend_terms_hinted`]: the vacant slot the walk
    /// ended at plus the dedup table's capacity at probe time. The chase
    /// resolve stage probes the frozen snapshot with this; the commit
    /// stage then resumes the walk instead of repeating it.
    pub fn locate_terms_hashed(
        &self,
        pred: PredId,
        args: &[Term],
        hash: u64,
    ) -> Result<AtomIdx, ProbeHint> {
        debug_assert_eq!(hash, hash_atom(pred, args), "caller-computed hash");
        let (preds, starts, ends, pool) = (&self.preds, &self.starts, &self.ends, &self.pool);
        match self.table.locate(hash, |idx| {
            let i = idx as usize;
            preds[i] == pred && pool.get(starts[i], ends[i] - starts[i]) == args
        }) {
            TagProbe::Found(idx) => Ok(idx),
            TagProbe::Vacant(slot) => Err(ProbeHint {
                slot: slot as u32,
                slot_count: self.table.slot_count() as u32,
            }),
        }
    }

    /// Number of atoms. This is the paper's `|I|` (cardinality).
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Heap bytes held by the atom arena, dedup table, and per-predicate
    /// posting index (capacities, not lengths — what the allocator
    /// actually holds). The instance is append-only, so the value at any
    /// moment is also the peak so far. Memory accounting for
    /// chase telemetry; O(#predicates + #spilled lists), not O(atoms).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = self.preds.capacity() * size_of::<PredId>()
            + self.starts.capacity() * size_of::<u32>()
            + self.ends.capacity() * size_of::<u32>()
            + self.pool.heap_bytes()
            + self.hashes.capacity() * size_of::<u64>()
            + self.table.heap_bytes()
            + self.by_pred.capacity() * size_of::<PredIndex>();
        for p in &self.by_pred {
            bytes += p.all.capacity() * size_of::<AtomIdx>();
            bytes += p.lanes.capacity() * size_of::<DenseLane>();
            for lane in &p.lanes {
                bytes += lane.posts.capacity() * size_of::<Postings>();
            }
            // Overflow map: buckets are (key, Postings) plus ~1/8 byte
            // of control metadata per bucket; capacity() approximates
            // the bucket count.
            bytes += p.by_pos_term.capacity() * (size_of::<u64>() + size_of::<Postings>() + 1);
            bytes += p.spills.heap_bytes();
        }
        bytes
    }

    /// Bytes of the instance currently held in file-backed chunks (zero
    /// unless `NUCHASE_INSTANCE_SPILL_DIR` is set): resident-set relief,
    /// complementing [`Instance::heap_bytes`].
    pub fn file_bytes(&self) -> usize {
        self.pool.file_bytes()
            + self
                .by_pred
                .iter()
                .map(|p| p.spills.file_bytes())
                .sum::<usize>()
    }

    /// Load factor of the atom dedup table (entries / slots; memory
    /// accounting for chase telemetry).
    pub fn table_load(&self) -> f64 {
        self.table.load_factor()
    }

    /// Number of posting lists that outgrew their inline slots into the
    /// spill arenas (memory accounting for chase telemetry).
    pub fn spill_count(&self) -> usize {
        self.by_pred.iter().map(|p| p.spills.list_count()).sum()
    }

    /// The atom at a given index, as a borrowed view into the arena.
    #[inline]
    pub fn atom(&self, idx: AtomIdx) -> AtomRef<'_> {
        let i = idx as usize;
        AtomRef {
            pred: self.preds[i],
            args: self.pool.get(self.starts[i], self.ends[i] - self.starts[i]),
        }
    }

    /// Prefetches the dedup-table cache line a probe for `hash` will
    /// touch — the batched-probe API's distance-k warm-up for the
    /// snapshot containment checks of the resolve stage.
    #[inline]
    pub fn prefetch_probe(&self, hash: u64) {
        self.table.prefetch(hash);
    }

    /// Iterates over all atoms in insertion order.
    pub fn iter(&self) -> AtomIter<'_> {
        AtomIter {
            inst: self,
            next: 0,
            end: self.len() as AtomIdx,
        }
    }

    /// Iterates over the atoms in an index range (used for chase deltas).
    pub fn iter_range(&self, from: AtomIdx, to: AtomIdx) -> AtomIter<'_> {
        assert!(from <= to && to as usize <= self.len());
        AtomIter {
            inst: self,
            next: from,
            end: to,
        }
    }

    /// Indexes of atoms with the given predicate (ascending).
    pub fn atoms_with_pred(&self, pred: PredId) -> &[AtomIdx] {
        self.by_pred
            .get(pred.index())
            .map_or(&[], |pi| pi.all.as_slice())
    }

    /// Indexes of atoms with the given predicate that carry the given
    /// term at the given argument position (ascending). This is the
    /// position-aware posting list the homomorphism search probes; for
    /// any-position queries sweep `0..arity_of(pred)`.
    pub fn atoms_with_pred_term_at(&self, pred: PredId, position: u32, term: Term) -> &[AtomIdx] {
        let Some(pi) = self.by_pred.get(pred.index()) else {
            return &[];
        };
        let (kind, id) = lane_coords(term);
        match pi.lanes.get(2 * position as usize + kind) {
            Some(lane) if !lane.disabled => lane.slice(id, &pi.spills),
            _ => pi
                .by_pos_term
                .get(&pos_term_key(position, term))
                .map(|p| p.as_slice(&pi.spills))
                .unwrap_or(&[]),
        }
    }

    /// The arity of a predicate as observed in the instance (0 if the
    /// predicate does not occur — 0-ary predicates and absent ones
    /// coincide, which is exactly what position sweeps need).
    pub fn arity_of(&self, pred: PredId) -> u32 {
        self.by_pred.get(pred.index()).map_or(0, |pi| pi.arity)
    }

    /// The predicate of the atom at `idx` (cheaper than materializing the
    /// full [`AtomRef`] when only the predicate is needed).
    #[inline]
    pub fn pred_of(&self, idx: AtomIdx) -> PredId {
        self.preds[idx as usize]
    }

    /// The predicates occurring in the instance, deduplicated, in
    /// ascending id order, without materializing a `Vec`. This is the
    /// only non-test accessor: the allocating `preds()` form is gated
    /// behind `cfg(test)`.
    pub fn preds_iter(&self) -> impl Iterator<Item = PredId> + '_ {
        self.by_pred
            .iter()
            .enumerate()
            .filter(|(_, pi)| !pi.all.is_empty())
            .map(|(i, _)| PredId(i as u32))
    }

    /// The predicates occurring in the instance, deduplicated, in no
    /// particular order. Test-only convenience; production callers use
    /// [`Instance::preds_iter`].
    #[cfg(test)]
    pub fn preds(&self) -> Vec<PredId> {
        self.preds_iter().collect()
    }

    /// `dom(I)` as a streaming iterator: all distinct ground terms in
    /// first-occurrence order. The dedup set is allocated once per call;
    /// no output `Vec` is built (the allocating `dom()` form is gated
    /// behind `cfg(test)`).
    pub fn dom_iter(&self) -> impl Iterator<Item = Term> + '_ {
        let mut seen = FxHashSet::default();
        // Per-atom ranges, not the raw pool: chunk-boundary padding in
        // the arena must stay invisible.
        (0..self.len() as AtomIdx)
            .flat_map(move |i| self.atom(i).args.iter().copied())
            .filter(move |&t| seen.insert(t))
    }

    /// `dom(I)`: the active domain, i.e. all distinct ground terms, in
    /// first-occurrence order. Test-only convenience; production callers
    /// use [`Instance::dom_iter`].
    #[cfg(test)]
    pub fn dom(&self) -> Vec<Term> {
        self.dom_iter().collect()
    }

    /// Does the instance consist solely of facts (a *database*)?
    pub fn is_database(&self) -> bool {
        (0..self.len() as AtomIdx).all(|i| self.atom(i).args.iter().all(|t| t.is_const()))
    }

    /// Returns the atoms as a sorted vector of owned atoms — a canonical
    /// form useful for comparing instances irrespective of insertion
    /// order.
    pub fn sorted_atoms(&self) -> Vec<Atom> {
        let mut v: Vec<Atom> = self.iter().map(|a| a.to_atom()).collect();
        v.sort();
        v
    }

    /// Set-equality with another instance (order-independent).
    pub fn set_eq(&self, other: &Instance) -> bool {
        self.len() == other.len() && self.iter().all(|a| other.contains_ref(a))
    }

    /// Index-and-order equality with another instance: atom `i` of `self`
    /// equals atom `i` of `other` for every `i`. Stronger than
    /// [`Instance::set_eq`]; used by the parallel-vs-sequential
    /// differential suites, where the executors must agree on atom *ids*,
    /// not just the atom set.
    pub fn indexed_eq(&self, other: &Instance) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| a.pred == b.pred && a.args == b.args)
    }

    /// A read-only snapshot view for a parallel enumeration phase.
    ///
    /// The enumerate phase of a chase round never mutates the instance,
    /// so sharing it across worker threads is sound; this wrapper makes
    /// the contract explicit in the type (and is statically asserted
    /// `Send + Sync` below — the instance holds no interior mutability).
    pub fn snapshot(&self) -> Snapshot<'_> {
        Snapshot { inst: self }
    }

    /// Intersects the `(position, term)` posting lists of `pred`,
    /// restricted to atom indexes in `bounds = [lo, hi)`, into `out`
    /// (cleared first; ascending). This is the batch enumeration path's
    /// candidate computation for a step with two or more keyed argument
    /// positions: instead of scanning the shortest list and re-verifying
    /// every other position per candidate (the backtracking search's
    /// shape), the lists are intersected wholesale — the shortest list
    /// drives, the rest are galloped ([`intersect_sorted`]), so the cost
    /// is `O(|shortest| · Σ log |other|)` in the worst case and far less
    /// when the lists diverge early.
    ///
    /// Produces exactly the atoms carrying every keyed term at its
    /// position (posting lists are position-exact), i.e. the same
    /// candidate set the per-candidate unification filter accepts —
    /// intra-atom repeated-variable constraints excepted, which the
    /// caller still checks.
    ///
    /// `scratch` is a caller-recycled intermediate buffer.
    pub fn intersect_pred_term_at(
        &self,
        pred: PredId,
        keys: &[(u32, Term)],
        bounds: (AtomIdx, AtomIdx),
        out: &mut Vec<AtomIdx>,
        scratch: &mut Vec<AtomIdx>,
    ) {
        out.clear();
        if keys.is_empty() {
            let list = self.atoms_with_pred(pred);
            let lo = list.partition_point(|&i| i < bounds.0);
            let hi = list.partition_point(|&i| i < bounds.1);
            out.extend_from_slice(&list[lo..hi]);
            return;
        }
        // Drive from the shortest list (most selective first).
        let mut driver = 0usize;
        let mut driver_len = usize::MAX;
        for (k, &(pos, term)) in keys.iter().enumerate() {
            let len = self.atoms_with_pred_term_at(pred, pos, term).len();
            if len < driver_len {
                driver = k;
                driver_len = len;
            }
        }
        let (pos, term) = keys[driver];
        let list = self.atoms_with_pred_term_at(pred, pos, term);
        let lo = list.partition_point(|&i| i < bounds.0);
        let hi = list.partition_point(|&i| i < bounds.1);
        out.extend_from_slice(&list[lo..hi]);
        for (k, &(pos, term)) in keys.iter().enumerate() {
            if k == driver {
                continue;
            }
            if out.is_empty() {
                return;
            }
            let list = self.atoms_with_pred_term_at(pred, pos, term);
            scratch.clear();
            intersect_sorted(out, list, scratch);
            std::mem::swap(out, scratch);
        }
    }
}

/// Intersects two ascending index lists into `out` (appended), galloping
/// over the longer one: each element of the shorter list is located in
/// the longer by exponential search from a moving base, so the cost is
/// `O(|short| · log(|long| / |short|))` — sub-linear in the long list,
/// which is the common shape of positional posting lists (a handful of
/// delta-bound candidates against a six-figure predicate lane).
///
/// Both inputs must be strictly ascending (posting lists are); the
/// output then is too. Pinned against the naive merge intersection on
/// adversarial lane shapes in the tests.
pub fn intersect_sorted(a: &[AtomIdx], b: &[AtomIdx], out: &mut Vec<AtomIdx>) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut base = 0usize;
    for &x in short {
        if base >= long.len() {
            break;
        }
        if long[base] < x {
            // Gallop: double the step until long[base + step] >= x (or
            // the list ends); the first index with value >= x then lies
            // in (base + step/2, base + step].
            let mut step = 1usize;
            while base + step < long.len() && long[base + step] < x {
                step *= 2;
            }
            let lo = base + step / 2 + 1;
            let hi = (base + step + 1).min(long.len());
            base = lo + long[lo..hi].partition_point(|&y| y < x);
        }
        if base < long.len() && long[base] == x {
            out.push(x);
            base += 1;
        }
    }
}

/// A dedup-table probe resumption point returned by
/// [`Instance::locate_terms_hashed`] on a miss: where the probed atom
/// would be inserted, valid while the table keeps the recorded capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeHint {
    /// The vacant slot the probe walk ended at.
    slot: u32,
    /// The table capacity the walk was taken under (a change means a
    /// rehash scattered the entries and the hint is void).
    slot_count: u32,
}

/// The posting-list updates deferred by a run of
/// [`Instance::extend_terms`] calls: the appended atom indexes, in
/// ascending order, awaiting [`Instance::splice_index`]. Reusable across
/// batches (splicing drains it, keeping the allocation).
#[derive(Debug, Default)]
pub struct IndexDelta {
    pending: Vec<AtomIdx>,
}

impl IndexDelta {
    /// Creates an empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of appended atoms awaiting an index splice.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Is the delta empty (nothing awaiting a splice)?
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// A read-only, `Send + Sync` view of an [`Instance`] frozen for the
/// duration of a parallel trigger-enumeration phase. Dereferences to the
/// instance, so every read API (match plans included) works on it
/// directly.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot<'a> {
    inst: &'a Instance,
}

impl Deref for Snapshot<'_> {
    type Target = Instance;

    fn deref(&self) -> &Instance {
        self.inst
    }
}

// The whole point of `Snapshot`: a frozen instance view may cross thread
// boundaries. `Instance` is plain owned data (no `Rc`, no cells), so the
// compiler derives these — the assertion pins the property against
// accidental regressions (e.g. someone caching lookups in a `RefCell`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot<'static>>();
    assert_send_sync::<Instance>();
};

/// Iterator over the atoms of an [`Instance`], yielding borrowed views.
#[derive(Clone)]
pub struct AtomIter<'a> {
    inst: &'a Instance,
    next: AtomIdx,
    end: AtomIdx,
}

impl<'a> Iterator for AtomIter<'a> {
    type Item = AtomRef<'a>;

    fn next(&mut self) -> Option<AtomRef<'a>> {
        if self.next >= self.end {
            return None;
        }
        let a = self.inst.atom(self.next);
        self.next += 1;
        Some(a)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for AtomIter<'_> {}

impl FromIterator<Atom> for Instance {
    fn from_iter<T: IntoIterator<Item = Atom>>(iter: T) -> Self {
        Instance::from_atoms(iter)
    }
}

impl<'a> IntoIterator for &'a Instance {
    type Item = AtomRef<'a>;
    type IntoIter = AtomIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::{ConstId, NullId};

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }
    fn n(i: u32) -> Term {
        Term::Null(NullId(i))
    }
    fn atom(p: u32, args: Vec<Term>) -> Atom {
        Atom::new(PredId(p), args)
    }

    #[test]
    fn insert_deduplicates() {
        let mut inst = Instance::new();
        assert_eq!(inst.insert(atom(0, vec![c(0), c(1)])), Some(0));
        assert_eq!(inst.insert(atom(0, vec![c(0), c(1)])), None);
        assert_eq!(inst.insert(atom(0, vec![c(1), c(0)])), Some(1));
        assert_eq!(inst.len(), 2);
        assert!(inst.contains(&atom(0, vec![c(0), c(1)])));
        assert_eq!(inst.index_of(&atom(0, vec![c(1), c(0)])), Some(1));
        assert_eq!(inst.index_of(&atom(0, vec![c(1), c(1)])), None);
    }

    #[test]
    fn insert_terms_matches_insert() {
        let mut inst = Instance::new();
        assert_eq!(inst.insert_terms(PredId(0), &[c(0), c(1)]), Some(0));
        assert_eq!(inst.insert_terms(PredId(0), &[c(0), c(1)]), None);
        assert_eq!(inst.insert(atom(0, vec![c(0), c(1)])), None);
        assert_eq!(inst.index_of_terms(PredId(0), &[c(0), c(1)]), Some(0));
    }

    #[test]
    fn dedup_survives_table_growth() {
        let mut inst = Instance::new();
        for i in 0..1000 {
            assert!(inst.insert(atom(0, vec![c(i), c(i + 1)])).is_some());
        }
        for i in 0..1000 {
            assert!(inst.insert(atom(0, vec![c(i), c(i + 1)])).is_none());
            assert!(inst.contains(&atom(0, vec![c(i), c(i + 1)])));
        }
        assert_eq!(inst.len(), 1000);
    }

    #[test]
    fn atom_views_read_the_arena() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0), c(1)]));
        inst.insert(atom(1, vec![c(2)]));
        let a = inst.atom(0);
        assert_eq!(a.pred, PredId(0));
        assert_eq!(a.args, &[c(0), c(1)]);
        assert_eq!(inst.atom(1).args, &[c(2)]);
        assert_eq!(a.to_atom(), atom(0, vec![c(0), c(1)]));
    }

    #[test]
    fn indexes_track_insertions() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0), c(1)]));
        inst.insert(atom(1, vec![c(0)]));
        inst.insert(atom(0, vec![c(2), c(0)]));
        assert_eq!(inst.atoms_with_pred(PredId(0)), &[0, 2]);
        assert_eq!(inst.atoms_with_pred(PredId(1)), &[1]);
        assert_eq!(inst.atoms_with_pred(PredId(9)), &[] as &[AtomIdx]);
        // Position-aware lists: c(0) occurs at position 0 of atom 0 and
        // at position 1 of atom 2 — distinct lists.
        assert_eq!(inst.atoms_with_pred_term_at(PredId(0), 0, c(0)), &[0]);
        assert_eq!(inst.atoms_with_pred_term_at(PredId(0), 1, c(0)), &[2]);
        assert_eq!(inst.atoms_with_pred_term_at(PredId(0), 0, c(2)), &[2]);
        assert_eq!(
            inst.atoms_with_pred_term_at(PredId(0), 1, c(2)),
            &[] as &[AtomIdx]
        );
        assert_eq!(inst.arity_of(PredId(0)), 2);
        assert_eq!(inst.arity_of(PredId(1)), 1);
        assert_eq!(inst.arity_of(PredId(9)), 0);
    }

    #[test]
    fn lane_keys_agree_with_term_keys() {
        // The dense-lane migration rebuilds overflow keys from raw
        // (kind, id) coordinates; they must match the term-based packing
        // bit for bit or lookups would miss migrated entries.
        for pos in [0u32, 1, 7] {
            for id in [0u32, 1, 513, u32::MAX >> 2] {
                assert_eq!(
                    pos_kind_id_key(pos, 0, id),
                    pos_term_key(pos, c(id)),
                    "const {pos}/{id}"
                );
                assert_eq!(
                    pos_kind_id_key(pos, 1, id),
                    pos_term_key(pos, n(id)),
                    "null {pos}/{id}"
                );
            }
        }
    }

    #[test]
    fn sparse_windows_migrate_to_the_overflow_map() {
        // Constants far apart force the (pred 0, pos 0) const lane
        // sparse: the window would exceed LANE_SPARSE_MIN at < 1/4
        // occupancy, so it migrates. Lookups must see every atom
        // regardless of which storage served them.
        let mut inst = Instance::new();
        let ids: Vec<u32> = (0..20).map(|k| k * 4096).collect();
        for (row, &id) in ids.iter().enumerate() {
            inst.insert(atom(0, vec![c(id), c(row as u32)]));
        }
        for (row, &id) in ids.iter().enumerate() {
            assert_eq!(
                inst.atoms_with_pred_term_at(PredId(0), 0, c(id)),
                &[row as AtomIdx],
                "id {id}"
            );
            assert_eq!(
                inst.atoms_with_pred_term_at(PredId(0), 1, c(row as u32)),
                &[row as AtomIdx]
            );
        }
        // Re-inserting an existing sparse term extends its migrated list.
        inst.insert(atom(0, vec![c(ids[3]), c(999)]));
        assert_eq!(
            inst.atoms_with_pred_term_at(PredId(0), 0, c(ids[3])),
            &[3, 20]
        );
    }

    #[test]
    fn descending_ids_rebase_or_migrate() {
        // A small dip below the window base rebases the lane in place.
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(500)]));
        inst.insert(atom(0, vec![c(100)]));
        inst.insert(atom(0, vec![c(300)]));
        for (row, id) in [(0u32, 500u32), (1, 100), (2, 300)] {
            assert_eq!(inst.atoms_with_pred_term_at(PredId(0), 0, c(id)), &[row]);
        }
        // A huge dip disables the lane; everything stays findable.
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(2_000_000)]));
        inst.insert(atom(0, vec![c(3)]));
        assert_eq!(
            inst.atoms_with_pred_term_at(PredId(0), 0, c(2_000_000)),
            &[0]
        );
        assert_eq!(inst.atoms_with_pred_term_at(PredId(0), 0, c(3)), &[1]);
        assert_eq!(
            inst.atoms_with_pred_term_at(PredId(0), 0, c(4)),
            &[] as &[AtomIdx]
        );
    }

    #[test]
    fn repeated_term_indexed_once_per_position() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0), c(0), c(0)]));
        for pos in 0..3 {
            assert_eq!(inst.atoms_with_pred_term_at(PredId(0), pos, c(0)), &[0]);
        }
    }

    #[test]
    fn snapshot_reads_like_the_instance() {
        let inst = Instance::from_atoms(vec![atom(0, vec![c(0), c(1)])]);
        let snap = inst.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.atom(0).args, &[c(0), c(1)]);
        assert_eq!(snap.atoms_with_pred_term_at(PredId(0), 1, c(1)), &[0]);
    }

    #[test]
    fn indexed_eq_requires_identical_order() {
        let a = Instance::from_atoms(vec![atom(0, vec![c(0)]), atom(1, vec![c(1)])]);
        let b = Instance::from_atoms(vec![atom(1, vec![c(1)]), atom(0, vec![c(0)])]);
        assert!(a.set_eq(&b));
        assert!(!a.indexed_eq(&b));
        assert!(a.indexed_eq(&a.clone()));
    }

    #[test]
    fn dom_and_database_checks() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0), c(1)]));
        assert!(inst.is_database());
        inst.insert(atom(0, vec![c(1), n(0)]));
        assert!(!inst.is_database());
        assert_eq!(inst.dom(), vec![c(0), c(1), n(0)]);
    }

    #[test]
    fn set_eq_ignores_order() {
        let a = Instance::from_atoms(vec![atom(0, vec![c(0)]), atom(1, vec![c(1)])]);
        let b = Instance::from_atoms(vec![atom(1, vec![c(1)]), atom(0, vec![c(0)])]);
        assert!(a.set_eq(&b));
        let c_ = Instance::from_atoms(vec![atom(1, vec![c(1)])]);
        assert!(!a.set_eq(&c_));
    }

    #[test]
    fn iter_range_gives_delta() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0)]));
        inst.insert(atom(0, vec![c(1)]));
        inst.insert(atom(0, vec![c(2)]));
        let delta: Vec<Atom> = inst.iter_range(1, 3).map(|a| a.to_atom()).collect();
        assert_eq!(delta.len(), 2);
        assert_eq!(delta[0], atom(0, vec![c(1)]));
    }

    #[test]
    fn extend_terms_defers_index_maintenance() {
        use crate::hash::hash_atom;
        let mut eager = Instance::new();
        let mut deferred = Instance::new();
        let mut delta = IndexDelta::new();
        let atoms = [
            atom(0, vec![c(0), c(1)]),
            atom(1, vec![c(1)]),
            atom(0, vec![c(0), c(1)]), // duplicate
            atom(0, vec![c(1), c(0)]),
        ];
        for a in &atoms {
            let h = hash_atom(a.pred, &a.args);
            assert_eq!(
                eager.insert_terms(a.pred, &a.args),
                deferred.extend_terms(a.pred, &a.args, h, &mut delta)
            );
        }
        // Dedup + positional reads are live before the splice...
        assert_eq!(deferred.len(), 3);
        assert_eq!(deferred.index_of(&atoms[0]), Some(0));
        assert_eq!(deferred.atom(2).args, &[c(1), c(0)]);
        // ...but posting lists are not.
        assert!(deferred.atoms_with_pred(PredId(0)).is_empty());
        assert_eq!(delta.len(), 3);
        deferred.splice_index(&mut delta);
        assert!(delta.is_empty());
        assert_eq!(
            deferred.atoms_with_pred(PredId(0)),
            eager.atoms_with_pred(PredId(0))
        );
        assert_eq!(
            deferred.atoms_with_pred_term_at(PredId(0), 1, c(0)),
            eager.atoms_with_pred_term_at(PredId(0), 1, c(0))
        );
        assert_eq!(deferred.arity_of(PredId(1)), 1);
        assert!(deferred.indexed_eq(&eager));
    }

    #[test]
    fn insert_new_terms_hinted_matches_plain_insert() {
        use crate::hash::hash_atom;
        // Fresh hints: locate → hinted insert must reproduce plain
        // inserts exactly, across enough atoms to cross table growth.
        let mut hinted = Instance::new();
        let mut plain = Instance::new();
        for i in 0..300u32 {
            let args = [c(i), c(i + 1)];
            let h = hash_atom(PredId(0), &args);
            let hint = hinted
                .locate_terms_hashed(PredId(0), &args, h)
                .expect_err("atom is new");
            let idx = hinted.insert_new_terms_hinted(PredId(0), &args, h, hint);
            assert_eq!(Some(idx), plain.insert_terms(PredId(0), &args));
        }
        assert!(hinted.indexed_eq(&plain));
        for i in 0..300u32 {
            assert_eq!(
                hinted.atoms_with_pred_term_at(PredId(0), 0, c(i)),
                plain.atoms_with_pred_term_at(PredId(0), 0, c(i)),
                "postings for {i}"
            );
            assert_eq!(hinted.index_of(&atom(0, vec![c(i), c(i + 1)])), Some(i));
        }
        // A stale hint — the table rehashed after the locate — falls
        // back to the full probe and still lands the atom correctly.
        let mut inst = Instance::new();
        let args = [c(9_999), c(0)];
        let h = hash_atom(PredId(1), &args);
        let stale = inst
            .locate_terms_hashed(PredId(1), &args, h)
            .expect_err("atom is new");
        for i in 0..100u32 {
            inst.insert(atom(0, vec![c(i)]));
        }
        let idx = inst.insert_new_terms_hinted(PredId(1), &args, h, stale);
        assert_eq!(idx, 100);
        assert_eq!(inst.index_of_terms(PredId(1), &args), Some(100));
        assert_eq!(inst.atoms_with_pred(PredId(1)), &[100]);
    }

    #[test]
    fn index_of_terms_hashed_matches_unhashed() {
        use crate::hash::hash_atom;
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0), c(1)]));
        let h = hash_atom(PredId(0), &[c(0), c(1)]);
        assert_eq!(
            inst.index_of_terms_hashed(PredId(0), &[c(0), c(1)], h),
            Some(0)
        );
        let h2 = hash_atom(PredId(0), &[c(1), c(1)]);
        assert_eq!(
            inst.index_of_terms_hashed(PredId(0), &[c(1), c(1)], h2),
            None
        );
    }

    #[test]
    fn iterator_accessors_match_vec_forms() {
        let mut inst = Instance::new();
        inst.insert(atom(2, vec![c(0), c(1)]));
        inst.insert(atom(0, vec![c(1), n(0)]));
        let preds: Vec<PredId> = inst.preds_iter().collect();
        let mut expect = inst.preds();
        expect.sort();
        assert_eq!(preds, expect); // preds_iter is ascending
        let dom: Vec<Term> = inst.dom_iter().collect();
        assert_eq!(dom, inst.dom());
    }

    /// The reference merge intersection `intersect_sorted` is pinned
    /// against: one linear walk over both lists.
    fn naive_intersect(a: &[AtomIdx], b: &[AtomIdx]) -> Vec<AtomIdx> {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out
    }

    #[test]
    fn galloping_intersection_matches_naive_on_adversarial_shapes() {
        // Lane shapes that stress every gallop branch: empty lists,
        // singletons, disjoint ranges, interleavings, dense-vs-sparse
        // (the gallop's home turf), duplicate-free runs with long gaps,
        // and equal lists.
        let dense: Vec<AtomIdx> = (0..4096).collect();
        let sparse: Vec<AtomIdx> = (0..4096).step_by(97).collect();
        let ends: Vec<AtomIdx> = vec![0, 4095];
        let tail: Vec<AtomIdx> = (4000..4200).collect();
        let shapes: Vec<(Vec<AtomIdx>, Vec<AtomIdx>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![5], vec![5]),
            (vec![5], vec![4]),
            (vec![1, 2, 3], vec![4, 5, 6]),
            (vec![4, 5, 6], vec![1, 2, 3]),
            (vec![1, 3, 5, 7, 9], vec![2, 3, 6, 7, 10]),
            (dense.clone(), sparse.clone()),
            (sparse.clone(), dense.clone()),
            (dense.clone(), ends.clone()),
            (dense.clone(), tail.clone()),
            (tail.clone(), sparse.clone()),
            (dense.clone(), dense.clone()),
        ];
        for (a, b) in &shapes {
            let mut out = Vec::new();
            intersect_sorted(a, b, &mut out);
            assert_eq!(
                out,
                naive_intersect(a, b),
                "shapes |a|={} |b|={}",
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn intersect_pred_term_at_matches_probe_and_filter() {
        // A triangle-ish edge set: intersecting (pos 0, X) with
        // (pos 1, Y) must equal probing one list and filtering by the
        // other position, for every bound pair — including bounds
        // clipping.
        let mut inst = Instance::new();
        for i in 0..30u32 {
            inst.insert(atom(0, vec![c(i % 5), c(i % 7)]));
        }
        let (mut out, mut scratch) = (Vec::new(), Vec::new());
        for x in 0..5u32 {
            for y in 0..7u32 {
                for bounds in [(0, u32::MAX), (0, 13), (7, 21)] {
                    inst.intersect_pred_term_at(
                        PredId(0),
                        &[(0, c(x)), (1, c(y))],
                        bounds,
                        &mut out,
                        &mut scratch,
                    );
                    let expect: Vec<AtomIdx> = inst
                        .atoms_with_pred_term_at(PredId(0), 0, c(x))
                        .iter()
                        .copied()
                        .filter(|&i| i >= bounds.0 && i < bounds.1 && inst.atom(i).args[1] == c(y))
                        .collect();
                    assert_eq!(out, expect, "x={x} y={y} bounds={bounds:?}");
                }
            }
        }
        // No keys: the bounds-clipped predicate list.
        inst.intersect_pred_term_at(PredId(0), &[], (3, 9), &mut out, &mut scratch);
        assert_eq!(out, vec![3, 4, 5, 6, 7, 8]);
        // Three keys (repeated-position style): still exact.
        inst.intersect_pred_term_at(
            PredId(0),
            &[(0, c(1)), (1, c(1)), (0, c(1))],
            (0, u32::MAX),
            &mut out,
            &mut scratch,
        );
        let expect: Vec<AtomIdx> = (0..inst.len() as AtomIdx)
            .filter(|&i| inst.atom(i).args == [c(1), c(1)])
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn zero_arity_atoms_are_supported() {
        let mut inst = Instance::new();
        assert_eq!(inst.insert(atom(0, vec![])), Some(0));
        assert_eq!(inst.insert(atom(0, vec![])), None);
        assert_eq!(inst.insert(atom(1, vec![])), Some(1));
        assert_eq!(inst.atom(0).args.len(), 0);
        assert_eq!(inst.atoms_with_pred(PredId(0)), &[0]);
    }
}
