//! The guarded completion `complete(I, Σ)` (§8 / appendix):
//! all atoms over `dom(I)` belonging to `chase(I, Σ)` — computable even
//! when the chase itself is infinite, thanks to guardedness.
//!
//! ## Why this is the crux
//!
//! Linearization needs, for every database atom and for every candidate
//! rule head, the set of atoms derivable over a *fixed finite* term set,
//! while derivations may excurse through unboundedly many fresh nulls. The
//! key property of guarded TGDs (Calì–Gottlob–Kifer) is that everything
//! derivable "below" an atom `β` of the guarded chase forest is determined
//! by the **type** of `β` — the atoms of the chase over `dom(β)`.
//!
//! ## Algorithm: semi-naive type saturation
//!
//! A *context* is the call's top instance (atoms over `dom(I)`) or the
//! completion of a memoised canonical Σ-type (atoms over the type's
//! canonical constants). The memo of types only grows. A `complete` call
//! runs global rounds until no context grows and no type is added; a round
//! saturates the top context and then every open type, each by passes
//! until a pass adds no atom. One pass over a context:
//!
//! 1. **Triggers.** Enumerate only the homomorphisms that touch an atom
//!    added since the context's previous pass, the one past its
//!    *watermark* ([`MatchPlan::for_each_hom_delta`]), so each
//!    homomorphism is seen once. A trigger with existentials whose
//!    `(rule, frontier image)` already fired in this context is dropped.
//! 2. **Fire.** Head atoms without existential terms go into the context.
//!    Each head atom `β` with one becomes a *link*: `β` with its sibling
//!    head atoms over `dom(β)`, the child type, and how many of the
//!    child's atoms have already flowed back.
//! 3. **Key.** The child type canonicalizes `(β, seed)`, where the seed is
//!    every context atom over `dom(β)` plus `β`'s siblings over `dom(β)`.
//!    A new key registers a child type holding its guard and side atoms.
//!    A link is keyed when it is made, and re-keyed only when a context
//!    atom added since lies over `dom(β)`, that is, when its seed grew.
//! 4. **Flow back.** Each link renames the child's atoms added since its
//!    last flow through the inverse canonicalization, and keeps those
//!    that avoid `β`'s existential terms. A context may link to its own
//!    type, so everything that flows is collected before any is inserted.
//!
//! Monotonicity of the semi-oblivious chase in its input instance makes
//! growing seeds sound (a bigger seed's child type subsumes the smaller
//! one's completion), and the finiteness of the canonical-type space
//! bounds the memo. A round in which no context grows and no type is
//! added is the global fixpoint.
//!
//! **Placeholder nulls.** No context ever holds a null: the input is
//! null-free, a type's atoms are over canonical constants, and only atoms
//! that avoid existential terms are inserted. So an existential term only
//! has to differ from the context's terms and from the other existentials
//! of its own trigger: siblings share it, a child type renames it to a
//! canonical constant, and flow-back drops every atom that mentions it.
//! The `k`-th existential of every trigger is therefore the placeholder
//! null `k`, and no null store is kept.
//!
//! A completion of a canonical type is a pure function of the type and
//! `Σ`, so one [`CompletionEngine`] serves many `complete` calls
//! (linearization calls it once per candidate rule head). The types that
//! reach a global fixpoint are *closed*: final, never run again, with
//! their trigger and link state dropped.
//!
//! [`MatchPlan::for_each_hom_delta`]: nuchase_model::MatchPlan::for_each_hom_delta

use std::ops::ControlFlow;

use nuchase_model::hash::{FxHashMap, FxHashSet};
use nuchase_model::plan::Scratch;
use nuchase_model::{
    Atom, AtomIdx, AtomRef, Instance, NullId, PredId, RuleId, SymbolTable, Term, TgdClass, TgdSet,
};

use crate::error::RewriteError;

/// Budgets for the saturation fixpoint.
#[derive(Clone, Copy, Debug)]
pub struct CompleteBudget {
    /// Maximum number of distinct canonical types to materialize.
    pub max_types: usize,
    /// Maximum number of global fixpoint rounds per `complete` call.
    pub max_rounds: usize,
}

impl Default for CompleteBudget {
    fn default() -> Self {
        CompleteBudget {
            max_types: 200_000,
            max_rounds: 100_000,
        }
    }
}

/// Canonical Σ-type: guard atom and side atoms over canonical constants,
/// side sorted. Two occurrences of "the same situation" in different
/// contexts canonicalize to the same value.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CanonType {
    /// The guard atom (arguments are canonical constants in
    /// first-occurrence order).
    pub guard: Atom,
    /// The side atoms (sorted, not containing the guard).
    pub side: Vec<Atom>,
}

/// The child of a link that has not been keyed yet.
const UNKEYED: u32 = u32::MAX;

/// A saturation context: the top instance of a `complete` call, or the
/// completion of a memoised type.
#[derive(Default)]
struct Context {
    /// The atoms derived so far. Never holds a null.
    inst: Instance,
    /// Every homomorphism into the atoms before this index has been
    /// enumerated.
    watermark: AtomIdx,
    /// `(rule, frontier image)` of the fired triggers with existentials.
    fired: FxHashSet<(RuleId, Box<[Term]>)>,
    /// One per fired head atom with existential terms.
    links: Vec<Link>,
}

/// A head atom `β` with existential terms, tied to its child type.
struct Link {
    /// `β`, then its sibling head atoms over `dom(β)`.
    atoms: Vec<Atom>,
    /// `dom(β)` in first-occurrence order: the inverse canonicalization
    /// maps the `i`-th canonical constant to `dom[i]`.
    dom: Vec<Term>,
    /// The child type's index in the engine's type list, or [`UNKEYED`].
    child: u32,
    /// The child's atoms before this index have flowed back.
    flowed: AtomIdx,
    /// The context's atoms before this index are in the child's seed.
    seen: AtomIdx,
}

/// The completion engine. Holds the TGD set, the canonical-constant pool,
/// and the global type memo. Reusable across `complete` calls.
pub struct CompletionEngine<'a> {
    tgds: &'a TgdSet,
    budget: CompleteBudget,
    canon: Vec<Term>,
    /// Canonical type → index into `types`.
    memo: FxHashMap<CanonType, u32>,
    /// The memoised types' contexts, in registration order.
    types: Vec<Context>,
    /// `types[..closed]` reached a global fixpoint: final.
    closed: usize,
    // Buffers reused across passes.
    scratch: Scratch,
    hom_rules: Vec<RuleId>,
    hom_terms: Vec<Term>,
    args: Vec<Term>,
    flow_atoms: Vec<(PredId, usize)>,
    flow_terms: Vec<Term>,
}

impl<'a> CompletionEngine<'a> {
    /// Creates an engine for a guarded TGD set. Interns the canonical
    /// constant pool (one constant per possible distinct position, i.e.
    /// `ar(Σ)` of them) into `symbols`.
    pub fn new(
        tgds: &'a TgdSet,
        symbols: &mut SymbolTable,
        budget: CompleteBudget,
    ) -> Result<Self, RewriteError> {
        if tgds.check_class(TgdClass::Guarded).is_err() {
            return Err(RewriteError::NotGuarded {
                rule: "completion requires guarded TGDs".into(),
            });
        }
        let canon = (1..=tgds.max_arity().max(1))
            .map(|i| Term::Const(symbols.constant(&format!("~{i}"))))
            .collect();
        Ok(CompletionEngine {
            tgds,
            budget,
            canon,
            memo: FxHashMap::default(),
            types: Vec::new(),
            closed: 0,
            scratch: Scratch::new(),
            hom_rules: Vec::new(),
            hom_terms: Vec::new(),
            args: Vec::new(),
            flow_atoms: Vec::new(),
            flow_terms: Vec::new(),
        })
    }

    /// Number of canonical types materialized so far.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Computes `complete(I, Σ)`: all atoms over `dom(I)` in
    /// `chase(I, Σ)`. `I` must be null-free (its terms act as constants).
    pub fn complete(&mut self, input: &Instance) -> Result<Instance, RewriteError> {
        assert!(
            input.iter().all(|a| a.args.iter().all(|t| t.is_const())),
            "complete() expects a null-free instance"
        );
        let mut top = Context {
            inst: input.clone(),
            ..Context::default()
        };
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > self.budget.max_rounds {
                return Err(RewriteError::Budget {
                    what: format!("completion rounds ({})", self.budget.max_rounds),
                });
            }
            let types_before = self.types.len();
            let mut grew = self.saturate(&mut top, None)?;
            // Types registered during the round are saturated in it too.
            let mut i = self.closed;
            while i < self.types.len() {
                // Out of the list while it runs, so that the pass can
                // register types; put back before an error propagates.
                let mut ctx = std::mem::take(&mut self.types[i]);
                let result = self.saturate(&mut ctx, Some(i));
                self.types[i] = ctx;
                grew |= result?;
                i += 1;
            }
            if !grew && self.types.len() == types_before {
                for ty in &mut self.types[self.closed..] {
                    ty.fired = FxHashSet::default();
                    ty.links = Vec::new();
                }
                self.closed = self.types.len();
                return Ok(top.inst);
            }
        }
    }

    /// Runs passes over `ctx` until one adds no atom; `me` is the
    /// context's own type index (`None` for the top context). Returns
    /// whether the context grew.
    fn saturate(&mut self, ctx: &mut Context, me: Option<usize>) -> Result<bool, RewriteError> {
        let start = ctx.inst.len();
        loop {
            let before = ctx.inst.len();
            self.pass(ctx, me)?;
            if ctx.inst.len() == before {
                return Ok(before > start);
            }
        }
    }

    /// One pass over a context: fire the new triggers, key the new links
    /// and re-key those whose seed grew, then flow back what the children
    /// derived since the last pass.
    fn pass(&mut self, ctx: &mut Context, me: Option<usize>) -> Result<(), RewriteError> {
        // Triggers: the homomorphisms that touch an atom past the
        // watermark. Collected first; the context cannot grow while
        // homomorphisms into it are enumerated.
        self.hom_rules.clear();
        self.hom_terms.clear();
        for (rule, tgd) in self.tgds.iter() {
            let (rules, terms) = (&mut self.hom_rules, &mut self.hom_terms);
            tgd.body_plan().for_each_hom_delta(
                &ctx.inst,
                ctx.watermark,
                &mut self.scratch,
                |binding| {
                    rules.push(rule);
                    // Existential slots stay unbound; firing overwrites them.
                    terms.extend(binding.iter().map(|t| t.unwrap_or(Term::Null(NullId(0)))));
                    ControlFlow::Continue(())
                },
            );
        }
        ctx.watermark = ctx.inst.len() as AtomIdx;

        let mut offset = 0;
        for &rule in &self.hom_rules {
            let tgd = self.tgds.get(rule);
            let mu = &mut self.hom_terms[offset..offset + tgd.var_count() as usize];
            offset += mu.len();
            // Homomorphisms that agree on the frontier fire one trigger.
            // Repeats of a trigger without existentials insert nothing new,
            // so only the triggers that make links are remembered.
            if !tgd.existentials().is_empty() {
                let image = tgd.frontier().iter().map(|v| mu[v.index()]).collect();
                if !ctx.fired.insert((rule, image)) {
                    continue;
                }
            }
            for (k, z) in tgd.existentials().iter().enumerate() {
                mu[z.index()] = Term::Null(NullId(k as u32));
            }
            let ground = |t: &Term| match *t {
                Term::Var(v) => mu[v.index()],
                g => g,
            };
            for head in tgd.head() {
                self.args.clear();
                self.args.extend(head.args.iter().map(ground));
                if !self.args.iter().any(|t| t.is_null()) {
                    ctx.inst.insert_terms(head.pred, &self.args);
                }
            }
            if tgd.existentials().is_empty() {
                continue;
            }
            let result: Vec<Atom> = tgd
                .head()
                .iter()
                .map(|a| Atom::new(a.pred, a.args.iter().map(ground).collect::<Vec<_>>()))
                .collect();
            for beta in result.iter().filter(|a| a.args.iter().any(|t| t.is_null())) {
                let dom = beta.dom();
                let mut atoms = vec![beta.clone()];
                atoms.extend(
                    result
                        .iter()
                        .filter(|sib| *sib != beta && sib.args.iter().all(|t| dom.contains(t)))
                        .cloned(),
                );
                ctx.links.push(Link {
                    atoms,
                    dom,
                    child: UNKEYED,
                    flowed: 0,
                    seen: 0,
                });
            }
        }

        // Key: new links, and links whose seed grew.
        let len = ctx.inst.len() as AtomIdx;
        for link in &mut ctx.links {
            if link.seen == len {
                continue;
            }
            let grew = link.child == UNKEYED
                || ctx
                    .inst
                    .iter_range(link.seen, len)
                    .any(|a| a.args.iter().all(|t| link.dom.contains(t)));
            link.seen = len;
            if !grew {
                continue;
            }
            let key = link_type(link, &ctx.inst, &self.canon);
            let child = match self.memo.get(&key) {
                Some(&child) => child,
                None => self.register(key)?,
            };
            if child != link.child {
                link.child = child;
                link.flowed = 0;
            }
        }

        // Flow back, collecting before inserting: a link's child can be
        // this very context.
        self.flow_atoms.clear();
        self.flow_terms.clear();
        for link in &mut ctx.links {
            let child = if Some(link.child as usize) == me {
                &ctx.inst
            } else {
                &self.types[link.child as usize].inst
            };
            let end = child.len() as AtomIdx;
            'atoms: for gamma in child.iter_range(link.flowed, end) {
                let mark = self.flow_terms.len();
                for &t in gamma.args {
                    let back = link.dom[canon_index(&self.canon, t)];
                    if back.is_null() {
                        self.flow_terms.truncate(mark);
                        continue 'atoms;
                    }
                    self.flow_terms.push(back);
                }
                self.flow_atoms.push((gamma.pred, self.flow_terms.len()));
            }
            link.flowed = end;
        }
        let mut from = 0;
        for &(pred, to) in &self.flow_atoms {
            ctx.inst.insert_terms(pred, &self.flow_terms[from..to]);
            from = to;
        }
        // Placeholder nulls are sound only while no context holds a null
        // (module doc): the input is null-free, and this pass added only
        // atoms that avoid existential terms.
        debug_assert!(
            ctx.inst
                .iter_range(ctx.watermark, ctx.inst.len() as AtomIdx)
                .all(|a| a.args.iter().all(|t| !t.is_null())),
            "a completion context holds a null"
        );
        Ok(())
    }

    /// Adds a canonical type to the memo, its context seeded with its
    /// guard and side atoms. Returns its index.
    fn register(&mut self, key: CanonType) -> Result<u32, RewriteError> {
        if self.memo.len() >= self.budget.max_types {
            return Err(RewriteError::Budget {
                what: format!("canonical types ({})", self.budget.max_types),
            });
        }
        let mut inst = Instance::new();
        for atom in std::iter::once(&key.guard).chain(&key.side) {
            inst.insert_terms(atom.pred, &atom.args);
        }
        let index = self.types.len() as u32;
        self.types.push(Context {
            inst,
            ..Context::default()
        });
        self.memo.insert(key, index);
        Ok(index)
    }
}

/// The index of canonical constant `t` in `canon`.
fn canon_index(canon: &[Term], t: Term) -> usize {
    canon
        .iter()
        .position(|&c| c == t)
        .expect("completion atoms are over canonical constants")
}

/// The child type of a link: `(β, seed)` canonicalized, where the seed is
/// `β`'s siblings plus every atom of `inst` over `dom(β)`.
fn link_type(link: &Link, inst: &Instance, canon: &[Term]) -> CanonType {
    let rename = |a: AtomRef<'_>| rename_into(a, &link.dom, canon);
    let mut side: Vec<Atom> = link.atoms[1..].iter().map(|a| rename(a.as_ref())).collect();
    for_each_atom_over_dom(inst, &link.dom, |a| side.push(rename(a)));
    canonical(rename(link.atoms[0].as_ref()), side)
}

/// `atom` with `dom[i]` renamed to `canon[i]`.
fn rename_into(atom: AtomRef<'_>, dom: &[Term], canon: &[Term]) -> Atom {
    atom.map_terms(|t| canon[dom.iter().position(|&d| d == t).expect("term in dom(β)")])
}

/// The canonical type of a renamed guard and side: the side without the
/// guard, sorted and deduplicated.
fn canonical(guard: Atom, mut side: Vec<Atom>) -> CanonType {
    side.retain(|a| *a != guard);
    side.sort();
    side.dedup();
    CanonType { guard, side }
}

/// Canonicalizes `(β, seed)`: renames `dom(β)` (in first-occurrence order
/// of `β`'s arguments) to the canonical constants of `canon`, producing
/// the canonical Σ-type and the inverse renaming (canonical index →
/// original term). The completion engine's child types and the
/// linearization's types of §8 go through the same renaming, so equal
/// situations get identical type keys.
pub fn canonicalize_type(beta: &Atom, seed: &[Atom], canon: &[Term]) -> (CanonType, Vec<Term>) {
    let dom = beta.dom();
    let guard = rename_into(beta.as_ref(), &dom, canon);
    let side = seed
        .iter()
        .map(|a| rename_into(a.as_ref(), &dom, canon))
        .collect();
    (canonical(guard, side), dom)
}

/// The canonical type of a null-free atom `alpha` of `inst`: `alpha` with
/// every atom of `inst` over `dom(alpha)`, canonicalized against `canon`.
/// Equals `canonicalize_type(alpha, &atoms_over_dom(inst, &dom(alpha)),
/// canon).0` without the copies.
pub(crate) fn type_of(alpha: AtomRef<'_>, inst: &Instance, canon: &[Term]) -> CanonType {
    let dom = alpha.dom();
    let mut side = Vec::new();
    for_each_atom_over_dom(inst, &dom, |a| side.push(rename_into(a, &dom, canon)));
    canonical(rename_into(alpha, &dom, canon), side)
}

/// Calls `f` on every atom of `inst` whose domain is contained in `dom`
/// (including 0-ary atoms, whose domain is empty), each once: an atom of
/// positive arity is found through the term at its first position.
fn for_each_atom_over_dom(inst: &Instance, dom: &[Term], mut f: impl FnMut(AtomRef<'_>)) {
    for pred in inst.preds_iter() {
        if inst.arity_of(pred) == 0 {
            for &idx in inst.atoms_with_pred(pred) {
                f(inst.atom(idx));
            }
            continue;
        }
        for &t in dom {
            for &idx in inst.atoms_with_pred_term_at(pred, 0, t) {
                let atom = inst.atom(idx);
                if atom.args[1..].iter().all(|a| dom.contains(a)) {
                    f(atom);
                }
            }
        }
    }
}

/// All atoms of `inst` whose domain is contained in `dom` (including
/// 0-ary atoms, whose domain is empty).
pub fn atoms_over_dom(inst: &Instance, dom: &[Term]) -> Vec<Atom> {
    let mut out = Vec::new();
    for_each_atom_over_dom(inst, dom, |a| out.push(a.to_atom()));
    out
}

/// One-shot convenience: `complete(I, Σ)` with a fresh engine.
pub fn complete(
    input: &Instance,
    tgds: &TgdSet,
    symbols: &mut SymbolTable,
) -> Result<Instance, RewriteError> {
    CompletionEngine::new(tgds, symbols, CompleteBudget::default())?.complete(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuchase_engine::nulls::{NullKey, NullStore};
    use nuchase_engine::semi_oblivious_chase;
    use nuchase_gen::{random_program, RandomConfig};
    use nuchase_model::parser::parse_program;
    use nuchase_model::Program;
    use std::collections::{HashMap, HashSet};

    /// The naive engine that [`CompletionEngine`] replaced, kept as the
    /// reference for diverging programs, where no finite chase is one.
    /// Every global round re-enumerates every rule over the top context
    /// and over a clone of every open type, and interns a null per
    /// trigger per round.
    struct NaiveEngine<'a> {
        tgds: &'a TgdSet,
        budget: CompleteBudget,
        canon: Vec<Term>,
        memo: HashMap<CanonType, Instance>,
        closed: HashSet<CanonType>,
        nulls: NullStore,
    }

    impl<'a> NaiveEngine<'a> {
        fn new(tgds: &'a TgdSet, symbols: &mut SymbolTable) -> Self {
            NaiveEngine {
                tgds,
                budget: CompleteBudget::default(),
                canon: (1..=tgds.max_arity().max(1))
                    .map(|i| Term::Const(symbols.constant(&format!("~{i}"))))
                    .collect(),
                memo: HashMap::new(),
                closed: HashSet::new(),
                nulls: NullStore::new(),
            }
        }

        fn complete(&mut self, input: &Instance) -> Result<Instance, RewriteError> {
            let mut top = input.clone();
            let mut rounds = 0;
            loop {
                rounds += 1;
                if rounds > self.budget.max_rounds {
                    return Err(RewriteError::Budget {
                        what: format!("completion rounds ({})", self.budget.max_rounds),
                    });
                }
                let mut changed = self.expand_context(&mut top)?;
                let keys: Vec<CanonType> = self
                    .memo
                    .keys()
                    .filter(|k| !self.closed.contains(*k))
                    .cloned()
                    .collect();
                for key in keys {
                    let mut inst = self.memo.get(&key).expect("key snapshot valid").clone();
                    if self.expand_context(&mut inst)? {
                        self.memo.insert(key, inst);
                        changed = true;
                    }
                }
                if !changed {
                    self.closed.extend(self.memo.keys().cloned());
                    return Ok(top);
                }
            }
        }

        fn expand_context(&mut self, ctx: &mut Instance) -> Result<bool, RewriteError> {
            let mut changed = false;
            let mut apps: Vec<(RuleId, Vec<Term>)> = Vec::new();
            let mut scratch = Scratch::new();
            for (rule, tgd) in self.tgds.iter() {
                tgd.body_plan().for_each_hom(ctx, &mut scratch, |binding| {
                    let binding = binding
                        .iter()
                        .map(|t| t.unwrap_or(Term::Var(nuchase_model::VarId(0))))
                        .collect();
                    apps.push((rule, binding));
                    ControlFlow::Continue(())
                });
            }
            for (rule, binding) in apps {
                let tgd = self.tgds.get(rule);
                let frontier_image: Box<[Term]> =
                    tgd.frontier().iter().map(|v| binding[v.index()]).collect();
                let mut mu = binding.clone();
                for &z in tgd.existentials() {
                    let null = self.nulls.intern(
                        NullKey {
                            rule,
                            var: z,
                            frontier_image: frontier_image.clone(),
                        },
                        0,
                    );
                    mu[z.index()] = Term::Null(null);
                }
                let result: Vec<Atom> = tgd
                    .head()
                    .iter()
                    .map(|a| {
                        a.map_terms(|t| match t {
                            Term::Var(v) => mu[v.index()],
                            g => g,
                        })
                    })
                    .collect();
                for beta in &result {
                    if beta.args.iter().all(|t| !t.is_null()) {
                        if ctx.insert(beta.clone()).is_some() {
                            changed = true;
                        }
                        continue;
                    }
                    let dom: Vec<Term> = beta.dom();
                    let mut seed: Vec<Atom> = atoms_over_dom(ctx, &dom);
                    for sib in &result {
                        if sib != beta && sib.dom().iter().all(|t| dom.contains(t)) {
                            seed.push(sib.clone());
                        }
                    }
                    let (key, inverse) = canonicalize_type(beta, &seed, &self.canon);
                    if !self.memo.contains_key(&key) {
                        if self.memo.len() >= self.budget.max_types {
                            return Err(RewriteError::Budget {
                                what: format!("canonical types ({})", self.budget.max_types),
                            });
                        }
                        let mut init = Instance::new();
                        init.insert(key.guard.clone());
                        for s in &key.side {
                            init.insert(s.clone());
                        }
                        self.memo.insert(key.clone(), init);
                        changed = true;
                    }
                    let comp = self.memo.get(&key).expect("just ensured");
                    let mut flow: Vec<Atom> = Vec::new();
                    for gamma in comp.iter() {
                        let back = gamma.map_terms(|t| inverse[canon_index(&self.canon, t)]);
                        if back.args.iter().all(|t| !t.is_null()) {
                            flow.push(back);
                        }
                    }
                    for back in flow {
                        if ctx.insert(back).is_some() {
                            changed = true;
                        }
                    }
                }
            }
            Ok(changed)
        }
    }

    /// The calls linearization makes of one engine: `D` first, then the
    /// canonical type instances of `D`'s first five atoms (guard and side
    /// atoms over `~1, ~2, …`, as the `lin(Σ)` worklist completes them),
    /// then `D` again.
    fn call_sequence(
        p: &Program,
        completion: &Instance,
        symbols: &mut SymbolTable,
    ) -> Vec<Instance> {
        let widest = p.database.iter().map(|a| a.arity()).max().unwrap_or(0);
        let canon: Vec<Term> = (1..=p.tgds.max_arity().max(widest))
            .map(|i| Term::Const(symbols.constant(&format!("~{i}"))))
            .collect();
        let mut calls = vec![p.database.clone()];
        for alpha in p.database.iter().take(5) {
            let ty = type_of(alpha, completion, &canon);
            calls.push(std::iter::once(ty.guard).chain(ty.side).collect());
        }
        calls.push(p.database.clone());
        calls
    }

    /// Checks the two engines' completions of `p`: on a fresh engine each,
    /// and along [`call_sequence`] through one engine each. Returns false,
    /// having compared nothing, when the naive engine runs out of budget.
    fn engines_agree(p: &Program, what: &str) -> bool {
        let mut symbols = p.symbols.clone();
        let mut naive = NaiveEngine::new(&p.tgds, &mut symbols);
        let Ok(want) = naive.complete(&p.database) else {
            return false;
        };
        let got = complete(&p.database, &p.tgds, &mut symbols).unwrap();
        assert!(
            got.set_eq(&want),
            "{what}: {} atoms, the naive engine {}",
            got.len(),
            want.len()
        );
        let mut naive = NaiveEngine::new(&p.tgds, &mut symbols);
        let mut engine =
            CompletionEngine::new(&p.tgds, &mut symbols, CompleteBudget::default()).unwrap();
        for (k, input) in call_sequence(p, &want, &mut symbols).iter().enumerate() {
            let Ok(want) = naive.complete(input) else {
                return false;
            };
            let got = engine.complete(input).unwrap();
            assert!(
                got.set_eq(&want),
                "{what}, reused engine, call {k}: {} atoms, the naive engine {}",
                got.len(),
                want.len()
            );
        }
        true
    }

    /// The semi-naive engine against the naive one on random guarded
    /// programs of two shapes, terminating or not.
    #[test]
    fn semi_naive_matches_naive_on_random_programs() {
        let shapes = [
            (
                1_000,
                RandomConfig {
                    preds: 3,
                    max_arity: 4,
                    rules: 5,
                    facts: 10,
                    ..RandomConfig::default()
                },
            ),
            (700, RandomConfig::default()),
            // Many datalog rules over many facts: context atoms keep
            // arriving over the terms of earlier links, so re-keys matter.
            (
                300,
                RandomConfig {
                    preds: 6,
                    max_arity: 3,
                    rules: 12,
                    facts: 20,
                    constants: 8,
                    existential_prob: 0.2,
                    ..RandomConfig::default()
                },
            ),
        ];
        let mut compared = 0;
        for (seeds, shape) in shapes {
            for seed in 0..seeds {
                let cfg = RandomConfig {
                    class: TgdClass::Guarded,
                    seed,
                    ..shape
                };
                compared += usize::from(engines_agree(&random_program(&cfg), &format!("{cfg:?}")));
            }
        }
        assert!(compared >= 2_000, "only {compared} programs compared");
    }

    /// A link must be re-keyed when its seed grows. In each program `p(a)`
    /// reaches the top context only after the link of `s(a, Z)` was
    /// keyed, and only through terms outside `dom(s(a, Z))`, so the
    /// child type cannot derive it; `t(a)` needs the re-keyed child.
    #[test]
    fn semi_naive_rekeys_when_a_seed_grows() {
        for text in [
            // p(a) two passes late, through b.
            "r(a).\ne(a, b).\nf(b).\nf(Y) -> g(Y).\ne(X, Y), g(Y) -> p(X).",
            // Three passes late.
            "r(a).\ne(a, b).\nf(b).\nf(Y) -> g(Y).\ng(Y) -> h(Y).\ne(X, Y), h(Y) -> p(X).",
            // Flowed back from another link's child, a round late.
            "r(a).\ne(a, b).\ne(X, Y) -> w(X, Y, Z).\nw(X, Y, Z) -> p(X).",
        ] {
            let text = format!("r(X) -> s(X, Z).\ns(X, Z), p(X) -> t(X).\n{text}");
            let mut p = parse_program(&text).unwrap();
            assert!(engines_agree(&p, &text));
            let got = complete(&p.database, &p.tgds, &mut p.symbols).unwrap();
            let t = p.symbols.lookup_pred("t").unwrap();
            assert!(got.iter().any(|atom| atom.pred == t), "no t(a) on\n{text}");
        }
    }

    /// One tenant of the four-rule employee Σ: `employees` employees over
    /// one department per eight of them, a third of the departments
    /// senior, about half the employees outside senior departments active.
    /// With `diverges`, one employee is active in a senior department.
    fn tenant(rng: &mut u64, employees: usize, diverges: bool) -> Program {
        let mut next = |n: usize| {
            *rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (*rng >> 33) as usize % n
        };
        let mut text = String::from(
            "emp(X, D), active(X) -> worksfor(X, D, M).\n\
             worksfor(X, D, M) -> mgr(M, D).\n\
             mgr(M, D), senior(D) -> emp(M, D), active(M).\n\
             emp(X, D) -> dept(D).\n",
        );
        let depts = (employees / 8).max(2);
        let senior: Vec<bool> = (0..depts).map(|d| d == 0 || next(3) == 0).collect();
        let climber = diverges.then(|| next(employees));
        for e in 0..employees {
            let d = if climber == Some(e) { 0 } else { next(depts) };
            text.push_str(&format!("emp(e{e}, d{d}).\n"));
            if climber == Some(e) || (!senior[d] && next(2) == 0) {
                text.push_str(&format!("active(e{e}).\n"));
            }
        }
        for (d, _) in senior.iter().enumerate().filter(|(_, s)| **s) {
            text.push_str(&format!("senior(d{d}).\n"));
        }
        parse_program(&text).unwrap()
    }

    /// The semi-naive engine against the naive one on tenant databases of
    /// 100–200 employees, half of them diverging.
    #[test]
    fn semi_naive_matches_naive_on_tenants() {
        let mut rng = 7;
        for i in 0..40 {
            let employees = 100 + (i * 37) % 100;
            let p = tenant(&mut rng, employees, i % 2 == 0);
            assert!(engines_agree(&p, &format!("tenant {i}")));
        }
    }

    /// Reference: when the chase terminates, complete(I,Σ) must equal the
    /// chase atoms over dom(I).
    fn reference_complete(db: &Instance, tgds: &TgdSet) -> Option<Instance> {
        let r = semi_oblivious_chase(db, tgds, 200_000);
        if !r.terminated() {
            return None;
        }
        let dom: Vec<Term> = db.dom_iter().collect();
        Some(
            r.instance
                .iter()
                .filter(|a| a.args.iter().all(|t| dom.contains(t)))
                .map(|a| a.to_atom())
                .collect(),
        )
    }

    fn check_against_reference(text: &str) {
        let mut p = parse_program(text).unwrap();
        let got = complete(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let want = reference_complete(&p.database, &p.tgds)
            .expect("reference chase must terminate for this test");
        assert!(
            got.set_eq(&want),
            "complete mismatch:\n got: {:?}\nwant: {:?}",
            got.sorted_atoms(),
            want.sorted_atoms()
        );
    }

    #[test]
    fn datalog_saturation_without_existentials() {
        check_against_reference("e(a, b).\ne(b, c).\ne(X, Y) -> p(X).\np(X) -> q(X).");
    }

    #[test]
    fn flow_back_through_one_excursion() {
        // R(a,b); R(x,y) → ∃z S(y,z); S(y,z) → T(y).
        // T(b) is over dom(D) but derived via the null excursion.
        check_against_reference("r(a, b).\nr(X, Y) -> s(Y, Z).\ns(Y, Z) -> t(Y).");
    }

    #[test]
    fn flow_back_through_two_excursions() {
        // Deeper: R(x,y) → ∃z S(y,z); S(x,y) → ∃z U(y,z,x); U(x,y,w) → T(w).
        // T(b) flows back two levels.
        check_against_reference(
            "r(a, b).\nr(X, Y) -> s(Y, Z).\ns(X, Y) -> u(Y, Z, X).\nu(X, Y, W) -> t(W).",
        );
    }

    #[test]
    fn infinite_chase_finite_completion() {
        // The §3 infinite chain: complete(D,Σ) must still be computable —
        // atoms over {a,b} are just R(a,b) (plus derived P-marking).
        let mut p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).\nr(X, Y) -> p(X, Y).").unwrap();
        let got = complete(&p.database, &p.tgds, &mut p.symbols).unwrap();
        // Over {a,b}: r(a,b), p(a,b). The nulls' atoms are outside dom(D).
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn infinite_chase_with_back_flow() {
        // R(x,y) → ∃z R(y,z); R(x,y) → Mark(y). Infinite chase, but atoms
        // over dom(D)={a,b} are r(a,b), mark(b) — and also mark(a)? No:
        // mark(x) not derived for a unless some r(_, a) exists.
        let mut p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).\nr(X, Y) -> mark(Y).").unwrap();
        let got = complete(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let rendered: Vec<String> = got
            .sorted_atoms()
            .iter()
            .map(|a| format!("{}", nuchase_model::DisplayWith::display(a, &p.symbols)))
            .collect();
        assert_eq!(got.len(), 2, "{rendered:?}");
    }

    #[test]
    fn guarded_loop_back_to_database_terms() {
        // σ1: R(x,y) → ∃z S(x,y,z); σ2: S(x,y,z) → R(y,x).
        // R(b,a) is derivable over dom(D) through the S-excursion.
        check_against_reference("r(a, b).\nr(X, Y) -> s(X, Y, Z).\ns(X, Y, Z) -> r(Y, X).");
    }

    #[test]
    fn unguarded_sets_are_rejected() {
        let mut p = parse_program("r(X, Y), s(Y, Z) -> t(X, Z).").unwrap();
        let err = complete(&Instance::new(), &p.tgds, &mut p.symbols).unwrap_err();
        assert!(matches!(err, RewriteError::NotGuarded { .. }));
    }

    #[test]
    fn engine_is_reusable_across_calls() {
        let mut p = parse_program("r(a, b).\nr(X, Y) -> s(Y, Z).\ns(Y, Z) -> t(Y).").unwrap();
        let mut engine =
            CompletionEngine::new(&p.tgds, &mut p.symbols, CompleteBudget::default()).unwrap();
        let c1 = engine.complete(&p.database).unwrap();
        let c2 = engine.complete(&p.database).unwrap();
        assert!(c1.set_eq(&c2));
        assert!(engine.type_count() >= 1);
    }

    #[test]
    fn completion_includes_input() {
        let mut p = parse_program("r(a, b).\nr(X, Y) -> s(Y, Z).").unwrap();
        let got = complete(&p.database, &p.tgds, &mut p.symbols).unwrap();
        for atom in p.database.iter() {
            assert!(got.contains_ref(atom));
        }
    }
}
