//! Linearization (§8 / appendix): converting guarded TGDs into linear
//! TGDs over *type predicates*.
//!
//! A Σ-type `τ = (α, T)` packages the shape of a guard atom (an equality
//! pattern over canonical integers) together with its *type* — the atoms
//! of the chase over the guard's terms. The linearization encodes:
//!
//! * each database atom `R(t̄) ∈ D` as `[τ](t̄)` where `τ` canonicalizes
//!   `(R(t̄), type_{D,Σ}(R(t̄)))`, the type computed via
//!   [`complete`](crate::complete()) — this is `lin(D)`;
//! * each guarded TGD `σ`, for each Σ-type `τ` and homomorphism
//!   `h : body(σ) → atoms(τ)` with `h(guard(σ)) = guard(τ)`, as the linear
//!   TGD `[τ](ū) → ∃z̄ [τ₁](ū₁), …, [τₘ](ūₘ)` whose head types are
//!   computed by completing `{α₁, …, αₘ} ∪ atoms(τ)` — this is `lin(Σ)`.
//!
//! ## Reachable linearization
//!
//! `lin(Σ)` as defined in the paper ranges over *all* Σ-types
//! (double-exponentially many). Every use in the paper — the chase of
//! `lin(D)` and `lin(D)`-supportedness of cycles — only touches type
//! predicates reachable from the types of `lin(D)`: a supported cycle
//! contains a reachable node, and a cycle that contains one reachable node
//! consists entirely of reachable nodes. We therefore materialize
//! `lin(Σ)` by a worklist from the database types, which preserves
//! `chase(lin(D), lin(Σ))` verbatim (unreachable rules can never fire) and
//! the weak-acyclicity verdict of Theorem 8.3. See DESIGN.md §3.5.

use std::collections::{HashMap, HashSet, VecDeque};

use nuchase_model::hom::for_each_hom_seeded;
use nuchase_model::{Atom, Instance, PredId, SymbolTable, Term, Tgd, TgdClass, TgdSet};

use crate::complete::{type_of, CanonType, CompleteBudget, CompletionEngine};
use crate::error::RewriteError;
use crate::simplify::{simplify, Simplified};

/// Interns type predicates `[τ]` and remembers the Σ-type each stands for.
#[derive(Debug, Default, Clone)]
pub struct TypeRegistry {
    by_type: HashMap<CanonType, PredId>,
    by_pred: HashMap<PredId, CanonType>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `[τ]`; the predicate's arity is the *full* arity of the
    /// guard atom, so `lin(D)` facts `[τ](t̄)` and rule atoms `[τ](ū)`
    /// join correctly. Returns `(pred, was_new)`.
    pub fn intern(&mut self, symbols: &mut SymbolTable, ty: CanonType) -> (PredId, bool) {
        if let Some(&p) = self.by_type.get(&ty) {
            return (p, false);
        }
        let name = format!("[t{}]", self.by_type.len());
        let pred = symbols.fresh_pred(&name, ty.guard.arity());
        self.by_type.insert(ty.clone(), pred);
        self.by_pred.insert(pred, ty);
        (pred, true)
    }

    /// The Σ-type behind a type predicate.
    pub fn get_type(&self, pred: PredId) -> Option<&CanonType> {
        self.by_pred.get(&pred)
    }

    /// The predicate of a Σ-type, if interned.
    pub fn get_pred(&self, ty: &CanonType) -> Option<PredId> {
        self.by_type.get(ty).copied()
    }

    /// Number of interned types.
    pub fn len(&self) -> usize {
        self.by_pred.len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.by_pred.is_empty()
    }
}

/// The output of linearization.
#[derive(Debug, Clone)]
pub struct Linearized {
    /// `lin(D)`.
    pub database: Instance,
    /// `lin(Σ)`, restricted to types reachable from `lin(D)`.
    pub tgds: TgdSet,
    /// Mapping between type predicates `[τ]` and Σ-types.
    pub registry: TypeRegistry,
}

/// Budgets for linearization (on top of the completion budgets).
#[derive(Clone, Copy, Debug)]
pub struct LinearizeBudget {
    /// Completion budgets (shared engine).
    pub complete: CompleteBudget,
    /// Maximum number of type predicates to materialize.
    pub max_types: usize,
    /// Maximum number of produced linear TGDs.
    pub max_rules: usize,
}

impl Default for LinearizeBudget {
    fn default() -> Self {
        LinearizeBudget {
            complete: CompleteBudget::default(),
            max_types: 100_000,
            max_rules: 500_000,
        }
    }
}

/// Computes `lin(D)` and (reachable) `lin(Σ)` for a guarded set.
pub fn linearize(
    db: &Instance,
    tgds: &TgdSet,
    symbols: &mut SymbolTable,
) -> Result<Linearized, RewriteError> {
    linearize_with(db, tgds, symbols, LinearizeBudget::default())
}

/// [`linearize`] with explicit budgets.
pub fn linearize_with(
    db: &Instance,
    tgds: &TgdSet,
    symbols: &mut SymbolTable,
    budget: LinearizeBudget,
) -> Result<Linearized, RewriteError> {
    if tgds.check_class(TgdClass::Guarded).is_err() {
        return Err(RewriteError::NotGuarded {
            rule: "linearization requires guarded TGDs".into(),
        });
    }
    let mut engine = CompletionEngine::new(tgds, symbols, budget.complete)?;
    // Integer constants for head-type construction: positions 1..ar(Σ)
    // come from the engine pool; existentials use ar(Σ)+1, ar(Σ)+2, ….
    // A database atom of a predicate no rule mentions can be wider still,
    // and its type needs one constant per distinct term.
    let max_exist = tgds
        .iter()
        .map(|(_, t)| t.existentials().len())
        .max()
        .unwrap_or(0);
    let ar = tgds.max_arity().max(1);
    let widest_fact = db.iter().map(|a| a.arity()).max().unwrap_or(0);
    let ints: Vec<Term> = (1..=(ar + max_exist).max(widest_fact))
        .map(|i| Term::Const(symbols.constant(&format!("~{i}"))))
        .collect();

    let mut registry = TypeRegistry::new();
    // Type predicates whose rules are still to be made.
    let mut worklist: VecDeque<PredId> = VecDeque::new();
    let mut lin_db = Instance::new();

    // --- lin(D): one [τ](t̄) per database atom. ---
    let completion = engine.complete(db)?;
    for alpha in db.iter() {
        let (pred, new) = registry.intern(symbols, type_of(alpha, &completion, &ints));
        if new {
            worklist.push_back(pred);
        }
        lin_db.insert_terms(pred, alpha.args);
    }

    // --- lin(Σ): worklist over reachable types. ---
    let mut out = TgdSet::default();
    let mut rule_keys: HashSet<(Atom, Vec<Atom>)> = HashSet::new();
    while let Some(ty_pred) = worklist.pop_front() {
        if registry.len() > budget.max_types {
            return Err(RewriteError::Budget {
                what: format!("type predicates ({})", budget.max_types),
            });
        }
        let ty = registry
            .get_type(ty_pred)
            .expect("worklist types are interned")
            .clone();
        let ty_instance: Instance = std::iter::once(ty.guard.clone())
            .chain(ty.side.iter().cloned())
            .collect();

        for (_, tgd) in tgds.iter() {
            let guard_idx = tgd.guard_index().expect("guarded set");
            let guard_pat = &tgd.body()[guard_idx];
            // h(guard(σ)) = guard(τ): unify the guard pattern with the
            // type's guard atom to seed the binding.
            if guard_pat.pred != ty.guard.pred {
                continue;
            }
            let mut seed: Vec<Option<Term>> = vec![None; tgd.var_count() as usize];
            let mut ok = true;
            for (pt, at) in guard_pat.args.iter().zip(ty.guard.args.iter()) {
                let v = pt.as_var().expect("rules are constant-free");
                match seed[v.index()] {
                    Some(t) if t != *at => {
                        ok = false;
                        break;
                    }
                    _ => seed[v.index()] = Some(*at),
                }
            }
            if !ok {
                continue;
            }
            // Also require that the guard atom itself maps onto guard(τ)
            // exactly (it does by construction of `seed`).
            let rest: Vec<Atom> = tgd
                .body()
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != guard_idx)
                .map(|(_, a)| a.clone())
                .collect();
            let mut bindings: Vec<Vec<Option<Term>>> = Vec::new();
            for_each_hom_seeded(&rest, seed.clone(), &ty_instance, |b| {
                bindings.push(b.to_vec());
                std::ops::ControlFlow::Continue(())
            });

            for binding in bindings {
                // f: frontier vars ↦ h-image; existential zᵢ ↦ int ar(Σ)+i.
                let mut f: Vec<Option<Term>> = binding.clone();
                for (i, &z) in tgd.existentials().iter().enumerate() {
                    f[z.index()] = Some(ints[ar + i]);
                }
                let alphas: Vec<Atom> = tgd
                    .head()
                    .iter()
                    .map(|a| {
                        a.map_terms(|t| match t {
                            Term::Var(v) => f[v.index()].expect("head vars covered by f"),
                            g => g,
                        })
                    })
                    .collect();
                // I = {α₁,…,αₘ} ∪ atoms(τ); complete w.r.t. the *original* Σ.
                let local: Instance = alphas
                    .iter()
                    .cloned()
                    .chain(std::iter::once(ty.guard.clone()))
                    .chain(ty.side.iter().cloned())
                    .collect();
                let completed = engine.complete(&local)?;

                let mut head_atoms: Vec<Atom> = Vec::with_capacity(alphas.len());
                for (alpha_i, head_pat) in alphas.iter().zip(tgd.head().iter()) {
                    let ty_i = type_of(alpha_i.as_ref(), &completed, &ints);
                    let (pred_i, new) = registry.intern(symbols, ty_i);
                    if new {
                        worklist.push_back(pred_i);
                    }
                    head_atoms.push(Atom::new(pred_i, head_pat.args.clone()));
                }

                let body_atom = Atom::new(ty_pred, guard_pat.args.clone());
                let lin_tgd = Tgd::new(vec![body_atom], head_atoms)
                    .expect("linearized TGD is structurally valid");
                let key = (lin_tgd.body()[0].clone(), lin_tgd.head().to_vec());
                if rule_keys.insert(key) {
                    if out.len() >= budget.max_rules {
                        return Err(RewriteError::Budget {
                            what: format!("linear rules ({})", budget.max_rules),
                        });
                    }
                    debug_assert!(lin_tgd.is_linear());
                    out.push(lin_tgd);
                }
            }
        }
    }

    Ok(Linearized {
        database: lin_db,
        tgds: out,
        registry,
    })
}

/// `gsimple(·) = simple(lin(·))` (§8): linearize a guarded program, then
/// simplify the resulting linear program. The combined rewriting reduces
/// `ChTrm(G)` to the simple-linear case (Theorem 8.3).
pub fn gsimple(
    db: &Instance,
    tgds: &TgdSet,
    symbols: &mut SymbolTable,
) -> Result<(Simplified, TypeRegistry), RewriteError> {
    let lin = linearize(db, tgds, symbols)?;
    let simplified = simplify(&lin.database, &lin.tgds, symbols)?;
    Ok((simplified, lin.registry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuchase_model::parser::parse_program;

    /// Example E.9 of the paper: D = {R(a,a,b,c)}, guarded Σ. The only
    /// database type is τ = (R(1,1,2,3), {Q(1,3)}).
    #[test]
    fn example_e9_database_linearization() {
        let mut p = parse_program(
            "r(a, a, b, c).\n\
             p(X, Y, X, U, W), s(X, U) -> r(U, Y, X, Z1), t(Z1, Z2, X).\n\
             r(X, X, Y, Z) -> q(X, Z).",
        )
        .unwrap();
        let lin = linearize(&p.database, &p.tgds, &mut p.symbols).unwrap();
        assert_eq!(lin.database.len(), 1);
        let fact = lin.database.iter().next().unwrap();
        // Full-arity encoding: [τ](a, a, b, c).
        assert_eq!(fact.arity(), 4);
        let ty = lin.registry.get_type(fact.pred).unwrap();
        // Guard pattern R(~1,~1,~2,~3).
        let r = p.symbols.lookup_pred("r").unwrap();
        assert_eq!(ty.guard.pred, r);
        assert_eq!(ty.guard.args[0], ty.guard.args[1]);
        assert_ne!(ty.guard.args[1], ty.guard.args[2]);
        // Side = {Q(~1,~3)}.
        let q = p.symbols.lookup_pred("q").unwrap();
        assert_eq!(ty.side.len(), 1);
        assert_eq!(ty.side[0].pred, q);
        assert_eq!(ty.side[0].args[0], ty.guard.args[0]);
        assert_eq!(ty.side[0].args[1], ty.guard.args[3]);
    }

    /// Example E.10: linearizing σ under the type
    /// τ = (P(1,2,1,2,3), {S(1,2), S(1,1)}) yields head types
    /// τ₁ = (R(1,1,2,3), {S(2,1), S(2,2), Q(1,3)}) and τ₂ with guard
    /// T(1,2,3). (The strict Definition also places S(3,3) in τ₂'s side —
    /// S(1,1) is over dom(T(6,7,1)) — which the paper's worked example
    /// elides; we assert the strict reading.)
    #[test]
    fn example_e10_tgd_linearization() {
        let mut p = parse_program(
            // A database atom realising exactly the type of the example:
            // P(d,e,d,e,g) with S(d,e), S(d,d) present.
            "p(d, e, d, e, g).\ns(d, e).\ns(d, d).\n\
             p(X, Y, X, U, W), s(X, U) -> r(U, Y, X, Z1), t(Z1, Z2, X).\n\
             r(X, X, Y, Z) -> q(X, Z).",
        )
        .unwrap();
        let lin = linearize(&p.database, &p.tgds, &mut p.symbols).unwrap();
        // Find the linearized rule whose body predicate is the type of the
        // P-atom (guard P(1,2,1,2,3) with sides S(1,2), S(1,1)).
        let r = p.symbols.lookup_pred("r").unwrap();
        let t = p.symbols.lookup_pred("t").unwrap();
        let q = p.symbols.lookup_pred("q").unwrap();
        let s = p.symbols.lookup_pred("s").unwrap();
        let p_pred = p.symbols.lookup_pred("p").unwrap();

        let mut found = false;
        for (_, tgd) in lin.tgds.iter() {
            let body_ty = lin.registry.get_type(tgd.body()[0].pred).unwrap();
            if body_ty.guard.pred != p_pred || body_ty.side.len() != 2 {
                continue;
            }
            // This is the E.10 rule: check the head types.
            assert_eq!(tgd.head().len(), 2);
            let ty1 = lin.registry.get_type(tgd.head()[0].pred).unwrap();
            assert_eq!(ty1.guard.pred, r);
            // Guard pattern R(1,1,2,3): args 0 and 1 equal, rest distinct.
            assert_eq!(ty1.guard.args[0], ty1.guard.args[1]);
            assert_ne!(ty1.guard.args[1], ty1.guard.args[2]);
            assert_ne!(ty1.guard.args[2], ty1.guard.args[3]);
            // Side = {S(2,1), S(2,2), Q(1,3)}: three atoms, two S, one Q.
            assert_eq!(ty1.side.len(), 3);
            assert_eq!(ty1.side.iter().filter(|a| a.pred == s).count(), 2);
            assert_eq!(ty1.side.iter().filter(|a| a.pred == q).count(), 1);

            let ty2 = lin.registry.get_type(tgd.head()[1].pred).unwrap();
            assert_eq!(ty2.guard.pred, t);
            // Guard T(1,2,3): all distinct.
            let mut g = ty2.guard.args.to_vec();
            g.dedup();
            assert_eq!(g.len(), 3);
            // Strict reading: side contains S(3,3) (from S(1,1) ⊆ dom).
            assert_eq!(ty2.side.len(), 1);
            assert_eq!(ty2.side[0].pred, s);
            assert_eq!(ty2.side[0].args[0], ty2.side[0].args[1]);
            found = true;
        }
        assert!(found, "E.10 rule not produced");
    }

    #[test]
    fn lin_rules_are_linear_and_join_lin_db() {
        let mut p = parse_program("r(a, b).\nr(X, Y) -> s(Y, Z).\ns(Y, Z) -> t(Y).").unwrap();
        let lin = linearize(&p.database, &p.tgds, &mut p.symbols).unwrap();
        assert!(lin.tgds.iter().all(|(_, t)| t.is_linear()));
        // Chasing lin(D) with lin(Σ) must terminate like the original.
        let orig = nuchase_engine::semi_oblivious_chase(&p.database, &p.tgds, 10_000);
        let linc = nuchase_engine::semi_oblivious_chase(&lin.database, &lin.tgds, 10_000);
        assert!(orig.terminated() && linc.terminated());
        // Prop 8.1(2): maxdepth preserved.
        assert_eq!(orig.max_depth(), linc.max_depth());
    }

    #[test]
    fn infinite_chase_stays_infinite_after_linearization() {
        let mut p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let lin = linearize(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let orig = nuchase_engine::semi_oblivious_chase(&p.database, &p.tgds, 500);
        let linc = nuchase_engine::semi_oblivious_chase(&lin.database, &lin.tgds, 500);
        assert!(!orig.terminated());
        assert!(!linc.terminated());
    }

    #[test]
    fn non_guarded_sets_are_rejected() {
        let mut p = parse_program("r(X, Y), s(Y, Z) -> t(X, Z).").unwrap();
        let err = linearize(&Instance::new(), &p.tgds, &mut p.symbols).unwrap_err();
        assert!(matches!(err, RewriteError::NotGuarded { .. }));
    }

    #[test]
    fn gsimple_produces_simple_linear_rules() {
        let mut p = parse_program("r(a, b).\nr(X, Y) -> s(Y, Z).\ns(Y, Z) -> t(Y).").unwrap();
        let (gs, _reg) = gsimple(&p.database, &p.tgds, &mut p.symbols).unwrap();
        assert!(gs.tgds.iter().all(|(_, t)| t.is_simple_linear()));
        assert!(!gs.database.is_empty());
    }

    /// A fact of a predicate no rule mentions may be wider than every
    /// rule atom; its type still gets a canonical constant per term.
    #[test]
    fn facts_wider_than_every_rule_atom_linearize() {
        let mut p = parse_program("p(a, b, c).\nq(a).\nq(X), s(X) -> r(X).").unwrap();
        let lin = linearize(&p.database, &p.tgds, &mut p.symbols).unwrap();
        assert_eq!(lin.database.len(), 2);
        let wide = lin.database.iter().find(|a| a.arity() == 3).unwrap();
        let ty = lin.registry.get_type(wide.pred).unwrap();
        assert_eq!(ty.guard.args.len(), 3);
        assert_ne!(ty.guard.args[1], ty.guard.args[2]);
    }

    #[test]
    fn empty_database_linearizes_to_empty() {
        let mut p = parse_program("r(X, Y) -> s(Y, Z).").unwrap();
        let lin = linearize(&Instance::new(), &p.tgds, &mut p.symbols).unwrap();
        assert!(lin.database.is_empty());
        assert!(lin.tgds.is_empty());
        assert!(lin.registry.is_empty());
    }
}
