//! The pre-optimization chase, preserved as an independent reference.
//!
//! This module keeps the *seed* implementation of the semi-oblivious
//! chase alive — per-pivot pattern clones, a fresh trail `Vec` per
//! unification, `Box<[Term]>` dedup keys per trigger considered, an
//! `Atom`-keyed `HashMap` instance with tuple-key term indexes — exactly
//! the allocation profile the compiled-plan engine removed. It serves two
//! purposes:
//!
//! 1. **The benchmark's expected results.** The `chasebench` package at
//!    the workspace root checks every `chain` and `wide` result against
//!    this engine's atom count and atom-set digest.
//! 2. **Differential testing.** The integration tests assert that both
//!    engines produce identical instances (atom sets, null counts, trigger
//!    counts) on random programs.
//!
//! Nothing here is wired into production paths; keep the hot loop in
//! [`crate::chase`](crate::chase()).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::time::Instant;

use nuchase_model::{Atom, AtomIdx, Instance, PredId, RuleId, Term, TgdSet, VarId};

use crate::chase::{ChaseOutcome, ChaseStats};
use crate::nulls::{NullKey, NullStore};

/// The seed's null interner: a SipHash `HashMap` keyed by the owned
/// [`NullKey`] (the optimized [`NullStore`] probes borrowed parts with an
/// Fx table instead). Ids are assigned in the same order, so results are
/// comparable across engines.
#[derive(Debug, Default)]
struct SeedNulls {
    by_key: HashMap<NullKey, nuchase_model::NullId>,
    inner: NullStore,
}

impl SeedNulls {
    fn intern(&mut self, key: NullKey, frontier_depth: u32) -> nuchase_model::NullId {
        if let Some(&id) = self.by_key.get(&key) {
            return id;
        }
        let id = self.inner.intern(key.clone(), frontier_depth);
        self.by_key.insert(key, id);
        id
    }

    fn term_depth(&self, term: Term) -> u32 {
        self.inner.term_depth(term)
    }
}

/// The seed's instance layout: owned atoms, `Atom`-keyed dedup map,
/// tuple-key term index.
#[derive(Debug, Default, Clone)]
struct NaiveInstance {
    atoms: Vec<Atom>,
    seen: HashMap<Atom, AtomIdx>,
    by_pred: HashMap<PredId, Vec<AtomIdx>>,
    by_pred_term: HashMap<(PredId, Term), Vec<AtomIdx>>,
}

impl NaiveInstance {
    fn insert(&mut self, atom: Atom) -> Option<AtomIdx> {
        match self.seen.entry(atom) {
            Entry::Occupied(_) => None,
            Entry::Vacant(e) => {
                let idx = self.atoms.len() as AtomIdx;
                let atom = e.key().clone();
                e.insert(idx);
                self.by_pred.entry(atom.pred).or_default().push(idx);
                let mut indexed: Vec<Term> = Vec::with_capacity(atom.args.len());
                for &t in atom.args.iter() {
                    if !indexed.contains(&t) {
                        indexed.push(t);
                        self.by_pred_term
                            .entry((atom.pred, t))
                            .or_default()
                            .push(idx);
                    }
                }
                self.atoms.push(atom);
                Some(idx)
            }
        }
    }

    fn len(&self) -> usize {
        self.atoms.len()
    }

    fn atom(&self, idx: AtomIdx) -> &Atom {
        &self.atoms[idx as usize]
    }

    fn atoms_with_pred(&self, pred: PredId) -> &[AtomIdx] {
        self.by_pred.get(&pred).map_or(&[], Vec::as_slice)
    }

    fn atoms_with_pred_term(&self, pred: PredId, term: Term) -> &[AtomIdx] {
        self.by_pred_term
            .get(&(pred, term))
            .map_or(&[], Vec::as_slice)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Region {
    Old,
    New,
    All,
}

/// The seed's backtracking search: fresh binding per pivot, fresh trail
/// `Vec` per candidate, first-bound-argument index selection.
struct Search<'a, F> {
    inst: &'a NaiveInstance,
    patterns: &'a [Atom],
    regions: Vec<Region>,
    delta_start: AtomIdx,
    binding: Vec<Option<Term>>,
    callback: F,
}

impl<'a, F> Search<'a, F>
where
    F: FnMut(&[Option<Term>]) -> ControlFlow<()>,
{
    fn unify(&mut self, pattern: &Atom, atom: &Atom) -> Option<Vec<usize>> {
        let mut trail = Vec::new();
        for (&pt, &at) in pattern.args.iter().zip(atom.args.iter()) {
            match pt {
                Term::Var(v) => {
                    let slot = &mut self.binding[v.index()];
                    match slot {
                        Some(bound) => {
                            if *bound != at {
                                self.undo(&trail);
                                return None;
                            }
                        }
                        None => {
                            *slot = Some(at);
                            trail.push(v.index());
                        }
                    }
                }
                ground => {
                    if ground != at {
                        self.undo(&trail);
                        return None;
                    }
                }
            }
        }
        Some(trail)
    }

    fn undo(&mut self, trail: &[usize]) {
        for &v in trail {
            self.binding[v] = None;
        }
    }

    /// First bound-or-ground argument keys the index (no selectivity).
    fn candidates(&self, k: usize) -> &'a [AtomIdx] {
        let pattern = &self.patterns[k];
        for &t in pattern.args.iter() {
            let key = match t {
                Term::Var(v) => match self.binding[v.index()] {
                    Some(bound) => bound,
                    None => continue,
                },
                ground => ground,
            };
            return self.inst.atoms_with_pred_term(pattern.pred, key);
        }
        self.inst.atoms_with_pred(pattern.pred)
    }

    fn go(&mut self, k: usize) -> ControlFlow<()> {
        if k == self.patterns.len() {
            return (self.callback)(&self.binding);
        }
        let region = self.regions[k];
        let cands = self.candidates(k);
        let split = cands.partition_point(|&i| i < self.delta_start);
        let slice: &[AtomIdx] = match region {
            Region::Old => &cands[..split],
            Region::New => &cands[split..],
            Region::All => cands,
        };
        let inst: &'a NaiveInstance = self.inst;
        let patterns: &'a [Atom] = self.patterns;
        let pattern = &patterns[k];
        for &idx in slice {
            let atom: &'a Atom = inst.atom(idx);
            if pattern.pred != atom.pred {
                continue;
            }
            if let Some(trail) = self.unify(pattern, atom) {
                let flow = self.go(k + 1);
                self.undo(&trail);
                flow?;
            }
        }
        ControlFlow::Continue(())
    }
}

fn for_each_hom_delta_seed(
    patterns: &[Atom],
    var_count: u32,
    inst: &NaiveInstance,
    delta_start: AtomIdx,
    mut callback: impl FnMut(&[Option<Term>]) -> ControlFlow<()>,
) {
    if delta_start as usize >= inst.len() && delta_start > 0 {
        return;
    }
    let pivot_range = if delta_start == 0 {
        // Full enumeration: a single pass with all-All regions.
        let mut search = Search {
            inst,
            patterns,
            regions: vec![Region::All; patterns.len()],
            delta_start: 0,
            binding: vec![None; var_count as usize],
            callback,
        };
        let _ = search.go(0);
        return;
    } else {
        0..patterns.len()
    };
    for pivot in pivot_range {
        // Per-pivot permutation, cloned each round (the seed behaviour).
        let mut order: Vec<usize> = Vec::with_capacity(patterns.len());
        order.push(pivot);
        order.extend((0..patterns.len()).filter(|&k| k != pivot));
        let permuted: Vec<Atom> = order.iter().map(|&k| patterns[k].clone()).collect();
        let regions: Vec<Region> = order
            .iter()
            .map(|&k| match k.cmp(&pivot) {
                std::cmp::Ordering::Less => Region::Old,
                std::cmp::Ordering::Equal => Region::New,
                std::cmp::Ordering::Greater => Region::All,
            })
            .collect();
        let mut stop = false;
        let mut search = Search {
            inst,
            patterns: &permuted,
            regions,
            delta_start,
            binding: vec![None; var_count as usize],
            callback: |b: &[Option<Term>]| {
                let flow = callback(b);
                if flow.is_break() {
                    stop = true;
                }
                flow
            },
        };
        let _ = search.go(0);
        if stop {
            return;
        }
    }
}

/// Result of a baseline run: the instance (re-encoded into the arena
/// layout for comparisons), null store, outcome, and stats.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The chase instance, database included.
    pub instance: Instance,
    /// Null provenance and depth store.
    pub nulls: NullStore,
    /// Why the run stopped.
    pub outcome: ChaseOutcome,
    /// Run statistics (wall time covers the baseline engine only, not the
    /// final re-encoding).
    pub stats: ChaseStats,
}

impl BaselineResult {
    /// Did the baseline chase reach a fixpoint?
    pub fn terminated(&self) -> bool {
        self.outcome == ChaseOutcome::Terminated
    }
}

/// Runs the seed implementation of the semi-oblivious chase with an atom
/// budget.
pub fn baseline_semi_oblivious_chase(
    database: &Instance,
    tgds: &TgdSet,
    max_atoms: usize,
) -> BaselineResult {
    struct Pending {
        rule: RuleId,
        binding: Box<[Term]>,
    }

    let started = Instant::now();
    let mut instance = NaiveInstance::default();
    for a in database.iter() {
        instance.insert(a.to_atom());
    }
    let mut nulls = SeedNulls::default();
    let mut stats = ChaseStats::default();
    let mut fired: HashSet<(RuleId, Box<[Term]>)> = HashSet::new();
    let mut delta_start: AtomIdx = 0;
    let mut outcome = ChaseOutcome::Terminated;

    'rounds: loop {
        stats.rounds += 1;
        let mut pending: Vec<Pending> = Vec::new();
        for (rule, tgd) in tgds.iter() {
            for_each_hom_delta_seed(
                tgd.body(),
                tgd.var_count(),
                &instance,
                delta_start,
                |binding| {
                    stats.triggers_considered += 1;
                    // The seed boxed a key per trigger *considered*.
                    let key_terms: Box<[Term]> = tgd
                        .frontier()
                        .iter()
                        .map(|v| binding[v.index()].expect("frontier bound"))
                        .collect();
                    if fired.insert((rule, key_terms)) {
                        pending.push(Pending {
                            rule,
                            binding: binding
                                .iter()
                                .enumerate()
                                .map(|(v, t)| t.unwrap_or(Term::Var(VarId(v as u32))))
                                .collect(),
                        });
                    }
                    ControlFlow::Continue(())
                },
            );
        }
        if pending.is_empty() {
            break;
        }

        let len_before = instance.len();
        for p in pending {
            let tgd = tgds.get(p.rule);
            let frontier_depth = tgd
                .frontier()
                .iter()
                .map(|v| nulls.term_depth(p.binding[v.index()]))
                .max()
                .unwrap_or(0);
            let frontier_image: Box<[Term]> = tgd
                .frontier()
                .iter()
                .map(|v| p.binding[v.index()])
                .collect();
            let mut mu: Vec<Term> = p.binding.to_vec();
            for &z in tgd.existentials() {
                let null = nulls.intern(
                    NullKey {
                        rule: p.rule,
                        var: z,
                        frontier_image: frontier_image.clone(),
                    },
                    frontier_depth,
                );
                mu[z.index()] = Term::Null(null);
            }
            stats.triggers_fired += 1;
            for head_atom in tgd.head() {
                let atom = head_atom.map_terms(|t| match t {
                    Term::Var(v) => mu[v.index()],
                    ground => ground,
                });
                instance.insert(atom);
                if instance.len() >= max_atoms {
                    outcome = ChaseOutcome::AtomLimit;
                    break 'rounds;
                }
            }
        }
        if instance.len() == len_before {
            break;
        }
        delta_start = len_before as AtomIdx;
    }

    stats.atoms_created = instance.len() - database.len();
    stats.nulls_created = nulls.inner.len();
    stats.wall_secs = started.elapsed().as_secs_f64();
    BaselineResult {
        instance: Instance::from_atoms(instance.atoms),
        nulls: nulls.inner,
        outcome,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuchase_model::parser::parse_program;

    #[test]
    fn baseline_matches_optimized_on_closure() {
        let p = parse_program(
            "e(a, b).\ne(b, c).\ne(c, d).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X).",
        )
        .unwrap();
        let base = baseline_semi_oblivious_chase(&p.database, &p.tgds, 10_000);
        let opt = crate::chase::semi_oblivious_chase(&p.database, &p.tgds, 10_000);
        assert!(base.terminated() && opt.terminated());
        assert!(base.instance.set_eq(&opt.instance));
        assert_eq!(base.stats.triggers_fired, opt.stats.triggers_fired);
        assert_eq!(base.stats.nulls_created, opt.stats.nulls_created);
    }

    #[test]
    fn baseline_respects_the_atom_budget() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let r = baseline_semi_oblivious_chase(&p.database, &p.tgds, 100);
        assert_eq!(r.outcome, ChaseOutcome::AtomLimit);
        assert!(r.instance.len() >= 100);
    }
}
