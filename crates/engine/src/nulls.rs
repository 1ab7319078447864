//! The null store: labelled nulls with semi-oblivious provenance and depth.
//!
//! Definition 3.1 names the null invented for existential variable `z` by a
//! trigger `(σ, h)` as `⊥^z_{σ, h|fr(σ)}` — i.e. its identity is determined
//! by the *rule*, the *existential variable*, and the restriction of the
//! homomorphism to the frontier. The [`NullStore`] interns nulls by exactly
//! this key, which makes the semi-oblivious chase order-independent and
//! makes `chase(D, Σ)` a well-defined set (the paper's convention following
//! Grahne–Onet).
//!
//! Each null also records its **depth** (Definition 4.3):
//! `depth(⊥^z_{σ,h}) = 1 + max({depth(h(x)) | x ∈ fr(σ)} ∪ {0})`, computed
//! eagerly at interning time from the depths of the frontier image.

use nuchase_model::hash::{fold, hash_terms, partition, TagProbe, TagTable, PARTITIONS};
use nuchase_model::{AtomRef, NullId, RuleId, Term, VarId};

/// Provenance key of a semi-oblivious null: `(σ, z, h|fr(σ))`. The
/// frontier image is stored in the (sorted) order of `fr(σ)` as exposed by
/// [`nuchase_model::Tgd::frontier`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NullKey {
    /// The rule that invents the null.
    pub rule: RuleId,
    /// The existential variable.
    pub var: VarId,
    /// The image of the frontier under the trigger homomorphism.
    pub frontier_image: Box<[Term]>,
}

/// Interns nulls by provenance and records their depth.
///
/// Lookup is through a private open-addressing table keyed by the hash of
/// `(σ, z, h|fr(σ))` computed *in place* from borrowed parts
/// ([`NullStore::intern_parts`]), so re-interning an existing null — the
/// common case in a deep chase — allocates nothing. Provenance is stored
/// in a flat arena (`(rule, var)` metadata plus one pooled frontier-image
/// buffer), so even a *new* null costs only amortized appends, never a
/// per-null box.
#[derive(Debug, Default, Clone)]
pub struct NullStore {
    /// Hash-partitioned intern index (see [`partition`]): batch probes
    /// bin per partition, and the fused path's prefetch warms a quarter-
    /// size working set.
    tables: [TagTable; PARTITIONS],
    hashes: Vec<u64>,
    /// `(rule, var)` of null `i`; `None` for fresh (restricted) nulls.
    meta: Vec<Option<(RuleId, VarId)>>,
    /// Frontier image of null `i`: `images[image_offsets[i]..image_offsets[i+1]]`.
    image_offsets: Vec<u32>,
    images: Vec<Term>,
    depths: Vec<u32>,
}

fn hash_parts_prehashed(image_hash: u64, rule: RuleId, var: VarId) -> u64 {
    let mut h = fold(image_hash, u64::from(rule.0));
    h = fold(h, u64::from(var.0));
    h ^ (h >> 32)
}

impl NullStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nulls created so far.
    pub fn len(&self) -> usize {
        self.depths.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.depths.is_empty()
    }

    /// Heap bytes held by the interning table and provenance arenas
    /// (capacities, not lengths). The store only shrinks on
    /// [`NullStore::truncate`], so this tracks the peak within a run.
    /// Memory accounting for chase telemetry.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.tables.iter().map(TagTable::heap_bytes).sum::<usize>()
            + self.hashes.capacity() * size_of::<u64>()
            + self.meta.capacity() * size_of::<Option<(RuleId, VarId)>>()
            + self.image_offsets.capacity() * size_of::<u32>()
            + self.images.capacity() * size_of::<Term>()
            + self.depths.capacity() * size_of::<u32>()
    }

    /// Interns the null `⊥^z_{σ, h|fr}`, computing its depth from the
    /// frontier image. Returns the same id for the same key (semi-oblivious
    /// naming). `frontier_depth` must be the maximum depth over the
    /// frontier image terms (0 if the frontier is empty or all constants).
    pub fn intern(&mut self, key: NullKey, frontier_depth: u32) -> NullId {
        self.intern_parts(key.rule, key.var, &key.frontier_image, frontier_depth)
    }

    /// Allocation-free variant of [`NullStore::intern`]: the key is
    /// borrowed and only copied into an owned [`NullKey`] when the null is
    /// new.
    pub fn intern_parts(
        &mut self,
        rule: RuleId,
        var: VarId,
        frontier_image: &[Term],
        frontier_depth: u32,
    ) -> NullId {
        self.intern_parts_hashed(rule, var, frontier_image, None, frontier_depth)
    }

    /// [`NullStore::intern_parts`] with an optionally pre-computed
    /// [`hash_terms`] hash of the frontier image — the fused micro-round
    /// hashes a trigger key once for its fired-set probe and reuses it
    /// here for the null name.
    pub fn intern_parts_hashed(
        &mut self,
        rule: RuleId,
        var: VarId,
        frontier_image: &[Term],
        image_hash: Option<u64>,
        frontier_depth: u32,
    ) -> NullId {
        let image_hash = image_hash.unwrap_or_else(|| hash_terms(frontier_image));
        debug_assert_eq!(image_hash, hash_terms(frontier_image), "caller-computed");
        let hash = hash_parts_prehashed(image_hash, rule, var);
        let p = partition(hash);
        // Grow first so the vacant slot found by the probe stays valid.
        // (Fresh nulls carry hash 0 but are never in the table, so the
        // rehash via `hashes` only ever touches interned ids.)
        self.tables[p].reserve_one(&self.hashes);
        let vacant = {
            let (meta, image_offsets, images) = (&self.meta, &self.image_offsets, &self.images);
            match self.tables[p].probe(hash, |id| {
                let id = id as usize;
                meta[id] == Some((rule, var))
                    && &images[image_offsets[id] as usize..image_offsets[id + 1] as usize]
                        == frontier_image
            }) {
                TagProbe::Found(id) => return NullId(id),
                TagProbe::Vacant(slot) => slot,
            }
        };
        let id = NullId(self.depths.len() as u32);
        self.push_meta(Some((rule, var)), frontier_image);
        self.hashes.push(hash);
        self.depths.push(frontier_depth + 1);
        self.tables[p].fill(vacant, hash, id.0);
        id
    }

    /// Prefetches the intern-table line the null named by
    /// `(rule, var, image_hash)` would probe — issued by the fused chain
    /// path right after the trigger key is hashed, so this miss overlaps
    /// the fired-set probe instead of serializing behind it.
    #[inline]
    pub fn prefetch_intern(&self, rule: RuleId, var: VarId, image_hash: u64) {
        let hash = hash_parts_prehashed(image_hash, rule, var);
        self.tables[partition(hash)].prefetch(hash);
    }

    fn image(&self, id: usize) -> &[Term] {
        &self.images[self.image_offsets[id] as usize..self.image_offsets[id + 1] as usize]
    }

    fn push_meta(&mut self, meta: Option<(RuleId, VarId)>, image: &[Term]) {
        if self.image_offsets.is_empty() {
            self.image_offsets.push(0);
        }
        self.meta.push(meta);
        self.images.extend_from_slice(image);
        self.image_offsets.push(self.images.len() as u32);
    }

    /// Creates a fresh, never-deduplicated null (used by the restricted
    /// chase, whose nulls are per-firing).
    pub fn fresh(&mut self, frontier_depth: u32) -> NullId {
        let id = NullId(self.depths.len() as u32);
        self.push_meta(None, &[]);
        self.hashes.push(0);
        self.depths.push(frontier_depth + 1);
        id
    }

    /// Discards every null with id `>= len`, rebuilding the intern table.
    ///
    /// This is the rollback half of the two-stage apply pipeline's
    /// *deterministic id plan*: the plan pass interns a round's nulls
    /// optimistically, in canonical trigger order, before the commit loop
    /// runs — so when a budget stops the commit at trigger `j`, the nulls
    /// planned for the uncommitted tail must be unmade to match the
    /// per-trigger interleaving (which never reaches them). Ids are assigned in
    /// plan order, so the tail is exactly a suffix and truncation
    /// restores the store byte-for-byte. A stop ends the chase, so the
    /// O(len) table rebuild runs at most once per run.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.depths.len() {
            return;
        }
        self.meta.truncate(len);
        self.depths.truncate(len);
        self.hashes.truncate(len);
        self.image_offsets.truncate(len + 1);
        let images_len = self.image_offsets.last().copied().unwrap_or(0) as usize;
        self.images.truncate(images_len);
        self.tables = Default::default();
        for id in 0..len {
            // Fresh (restricted) nulls carry no key and never enter the
            // table — same as at creation time.
            if self.meta[id].is_none() {
                continue;
            }
            let hash = self.hashes[id];
            let p = partition(hash);
            self.tables[p].reserve_one(&self.hashes);
            // Keys are unique among interned nulls, so probing only for a
            // vacant slot (eq always false) reinserts them faithfully.
            match self.tables[p].probe(hash, |_| false) {
                TagProbe::Vacant(slot) => self.tables[p].fill(slot, hash, id as u32),
                TagProbe::Found(_) => unreachable!("probe eq is constant false"),
            }
        }
    }

    /// The depth of a null (Definition 4.3).
    #[inline]
    pub fn depth(&self, id: NullId) -> u32 {
        self.depths[id.index()]
    }

    /// The provenance key, if the null was interned (semi-oblivious /
    /// oblivious); `None` for fresh restricted-chase nulls. Reassembled
    /// from the arena, so this allocates — it is a reporting API, not a
    /// hot-path one.
    pub fn key(&self, id: NullId) -> Option<NullKey> {
        self.meta[id.index()].map(|(rule, var)| NullKey {
            rule,
            var,
            frontier_image: self.image(id.index()).into(),
        })
    }

    /// The frontier depth of a trigger (the Definition 4.3 input): the
    /// maximum stored depth over the frontier image under `binding`, 0
    /// for an empty or all-constant frontier. One definition shared by
    /// the pipeline's null plan ([`crate::phase::plan_nulls`]) and the
    /// fused micro-round path ([`crate::phase::apply_fused`]), so the
    /// two apply paths cannot drift on how depth folds.
    #[inline]
    pub fn max_frontier_depth(&self, frontier: &[VarId], binding: &[Term]) -> u32 {
        frontier
            .iter()
            .map(|v| self.term_depth(binding[v.index()]))
            .max()
            .unwrap_or(0)
    }

    /// Depth of a term: 0 for constants, stored depth for nulls.
    ///
    /// # Panics
    /// Panics on variables — instances are ground.
    #[inline]
    pub fn term_depth(&self, term: Term) -> u32 {
        match term {
            Term::Const(_) => 0,
            Term::Null(n) => self.depth(n),
            Term::Var(_) => panic!("variables have no depth"),
        }
    }

    /// Depth of an atom: the max depth over its arguments (§5).
    pub fn atom_depth(&self, atom: AtomRef<'_>) -> u32 {
        atom.args
            .iter()
            .map(|&t| self.term_depth(t))
            .max()
            .unwrap_or(0)
    }

    /// Maximum depth over all nulls created (0 if none).
    pub fn max_depth(&self) -> u32 {
        self.depths.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuchase_model::{Atom, ConstId, PredId};

    fn key(rule: u32, var: u32, frontier: Vec<Term>) -> NullKey {
        NullKey {
            rule: RuleId(rule),
            var: VarId(var),
            frontier_image: frontier.into(),
        }
    }

    #[test]
    fn interning_is_stable_per_key() {
        let mut store = NullStore::new();
        let a = Term::Const(ConstId(0));
        let n1 = store.intern(key(0, 1, vec![a]), 0);
        let n2 = store.intern(key(0, 1, vec![a]), 0);
        assert_eq!(n1, n2);
        assert_eq!(store.len(), 1);
        assert_eq!(store.depth(n1), 1);
    }

    #[test]
    fn different_keys_different_nulls() {
        let mut store = NullStore::new();
        let a = Term::Const(ConstId(0));
        let b = Term::Const(ConstId(1));
        let n1 = store.intern(key(0, 1, vec![a]), 0);
        let n2 = store.intern(key(0, 1, vec![b]), 0);
        let n3 = store.intern(key(0, 2, vec![a]), 0);
        let n4 = store.intern(key(1, 1, vec![a]), 0);
        assert_eq!(
            4,
            [n1, n2, n3, n4]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
        );
    }

    #[test]
    fn depth_chains_through_frontier() {
        let mut store = NullStore::new();
        let a = Term::Const(ConstId(0));
        let n1 = store.intern(key(0, 1, vec![a]), 0);
        assert_eq!(store.depth(n1), 1);
        let n2 = store.intern(key(0, 1, vec![Term::Null(n1)]), store.depth(n1));
        assert_eq!(store.depth(n2), 2);
        assert_eq!(store.max_depth(), 2);
    }

    #[test]
    fn fresh_nulls_never_coincide() {
        let mut store = NullStore::new();
        let n1 = store.fresh(0);
        let n2 = store.fresh(0);
        assert_ne!(n1, n2);
        assert!(store.key(n1).is_none());
    }

    #[test]
    fn truncate_rolls_back_to_a_prefix() {
        let mut store = NullStore::new();
        let a = Term::Const(ConstId(0));
        let b = Term::Const(ConstId(1));
        let n1 = store.intern(key(0, 1, vec![a]), 0);
        let _f = store.fresh(0); // restricted null interleaved
        let n2 = store.intern(key(0, 1, vec![b]), 0);
        let n3 = store.intern(key(1, 1, vec![a, b]), 0);
        assert_eq!(store.len(), 4);
        store.truncate(2);
        assert_eq!(store.len(), 2);
        // Survivors keep their ids, keys, and depths.
        assert_eq!(store.intern(key(0, 1, vec![a]), 0), n1);
        assert_eq!(store.key(n1).unwrap().frontier_image.as_ref(), &[a]);
        assert_eq!(store.depth(n1), 1);
        assert_eq!(store.len(), 2);
        // Truncated keys re-intern as new ids from the cut point.
        let n2b = store.intern(key(0, 1, vec![b]), 0);
        assert_eq!(n2b, n2);
        let n3b = store.intern(key(1, 1, vec![a, b]), 0);
        assert_eq!(n3b, n3);
        // No-op truncations do nothing.
        store.truncate(10);
        assert_eq!(store.len(), 4);
        store.truncate(0);
        assert!(store.is_empty());
        assert_eq!(store.intern(key(0, 1, vec![a]), 0), NullId(0));
    }

    #[test]
    fn truncate_survives_table_growth() {
        let mut store = NullStore::new();
        let terms: Vec<Term> = (0..200).map(|i| Term::Const(ConstId(i))).collect();
        for &t in &terms {
            store.intern(key(0, 1, vec![t]), 0);
        }
        store.truncate(100);
        for (i, &t) in terms.iter().enumerate() {
            let id = store.intern(key(0, 1, vec![t]), 0);
            if i < 100 {
                assert_eq!(id, NullId(i as u32), "prefix ids stable");
            }
        }
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn atom_depth_is_max_over_args() {
        let mut store = NullStore::new();
        let a = Term::Const(ConstId(0));
        let n1 = store.intern(key(0, 1, vec![a]), 0);
        let n2 = store.intern(key(0, 1, vec![Term::Null(n1)]), 1);
        let atom = Atom::new(PredId(0), vec![a, Term::Null(n1), Term::Null(n2)]);
        assert_eq!(store.atom_depth(atom.as_ref()), 2);
        assert_eq!(store.term_depth(a), 0);
    }
}
