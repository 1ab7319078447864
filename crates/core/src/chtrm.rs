//! The `ChTrm(C)` deciders — the paper's headline algorithms.
//!
//! Given `D` and `Σ ∈ C`, decide whether `chase(D, Σ)` is finite:
//!
//! * `C = SL` (Theorem 6.4): `Σ ∈ CT_D ⇔ Σ` is `D`-weakly-acyclic;
//! * `C = L` (Theorem 7.5): `⇔ simple(Σ)` is `simple(D)`-weakly-acyclic;
//! * `C = G` (Theorem 8.3): `⇔ gsimple(Σ)` is `gsimple(D)`-weakly-acyclic,
//!   where `gsimple = simple ∘ lin`.
//!
//! The **naive decider** the paper repeatedly contrasts against runs the
//! chase and compares against the size bound `|D| · f_C(Σ)` of item (2) of
//! each characterization: exceeding the bound proves divergence,
//! terminating below it proves convergence. Its cost is the size of the
//! chase (exponential and worse in `Σ`), which is exactly why the
//! syntactic deciders matter (experiments E10/E11).

use nuchase_engine::{chase, ChaseBudget, ChaseConfig, ChaseVariant};
use nuchase_model::{Instance, SymbolTable, TgdClass, TgdSet};
use nuchase_rewrite::linearize::gsimple;
use nuchase_rewrite::simplify::simplify;

use crate::bounds::chase_size_bound;
use crate::error::CoreError;
use crate::weak_acyclicity::is_weakly_acyclic;

/// Decides `ChTrm(SL)`: is `chase(D, Σ)` finite for simple linear `Σ`?
pub fn decide_sl(db: &Instance, tgds: &TgdSet) -> Result<bool, CoreError> {
    tgds.check_class(TgdClass::SimpleLinear)
        .map_err(CoreError::Model)?;
    Ok(is_weakly_acyclic(db, tgds))
}

/// Decides `ChTrm(L)` via simplification (Theorem 7.5).
pub fn decide_l(
    db: &Instance,
    tgds: &TgdSet,
    symbols: &mut SymbolTable,
) -> Result<bool, CoreError> {
    tgds.check_class(TgdClass::Linear)
        .map_err(CoreError::Model)?;
    let s = simplify(db, tgds, symbols).map_err(CoreError::Rewrite)?;
    Ok(is_weakly_acyclic(&s.database, &s.tgds))
}

/// Decides `ChTrm(G)` via linearization + simplification (Theorem 8.3).
pub fn decide_g(
    db: &Instance,
    tgds: &TgdSet,
    symbols: &mut SymbolTable,
) -> Result<bool, CoreError> {
    tgds.check_class(TgdClass::Guarded)
        .map_err(CoreError::Model)?;
    let (gs, _registry) = gsimple(db, tgds, symbols).map_err(CoreError::Rewrite)?;
    Ok(is_weakly_acyclic(&gs.database, &gs.tgds))
}

/// Decides `ChTrm` by dispatching on the most specific class of `Σ`
/// (`SL → L → G`); errors for general TGDs, where the problem is
/// undecidable (Prop 4.2).
pub fn decide(db: &Instance, tgds: &TgdSet, symbols: &mut SymbolTable) -> Result<bool, CoreError> {
    match tgds.classify() {
        TgdClass::SimpleLinear => decide_sl(db, tgds),
        TgdClass::Linear => decide_l(db, tgds, symbols),
        TgdClass::Guarded => decide_g(db, tgds, symbols),
        TgdClass::General => Err(CoreError::Undecidable),
    }
}

/// The naive chase-based decider: run the semi-oblivious chase up to the
/// bound `|D| · f_C(Σ)`; by the characterizations, exceeding it proves
/// divergence. Returns `Ok(None)` when the bound exceeds the caller's
/// atom budget (the naive approach is then simply infeasible — that
/// infeasibility is a *result*, exercised by experiment E11).
pub fn decide_naive(
    db: &Instance,
    tgds: &TgdSet,
    class: TgdClass,
    max_atoms: usize,
) -> Result<Option<bool>, CoreError> {
    tgds.check_class(class).map_err(CoreError::Model)?;
    let bound = chase_size_bound(db.len(), tgds, class);
    let cap = match bound.exact {
        Some(b) if b < max_atoms as u128 => b as usize,
        // The bound itself is out of reach; we can still salvage an
        // answer if the chase happens to terminate within budget.
        _ => {
            let r = chase(
                db,
                tgds,
                &ChaseConfig {
                    variant: ChaseVariant::SemiOblivious,
                    budget: ChaseBudget::atoms(max_atoms),
                    ..Default::default()
                },
            );
            return Ok(if r.terminated() { Some(true) } else { None });
        }
    };
    let r = chase(
        db,
        tgds,
        &ChaseConfig {
            variant: ChaseVariant::SemiOblivious,
            budget: ChaseBudget::atoms(cap + 1),
            ..Default::default()
        },
    );
    if r.terminated() {
        Ok(Some(true))
    } else {
        // More atoms than |D|·f_C(Σ): item (2) of the characterization
        // says the chase is infinite.
        Ok(Some(false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuchase_engine::semi_oblivious_chase;
    use nuchase_model::parser::parse_program;

    /// Ground truth via bounded chase (for test cases small enough that
    /// 50k atoms decide the matter given the known bounds).
    fn ground_truth(text: &str) -> (nuchase_model::Program, bool) {
        let p = parse_program(text).unwrap();
        let r = semi_oblivious_chase(&p.database, &p.tgds, 50_000);
        let t = r.terminated();
        (p, t)
    }

    #[test]
    fn sl_decider_agrees_with_chase() {
        for (text, expect) in [
            ("r(a, b).\nr(X, Y) -> r(Y, Z).", false),
            ("q(a).\nr(X, Y) -> r(Y, Z).", true),
            ("r(a, b).\nr(X, Y) -> s(X, Z).\ns(X, Y) -> t(X).", true),
            ("s(a, b).\ns(X, Y) -> r(X, Y).\nr(X, Y) -> r(Y, Z).", false),
        ] {
            let (mut p, truth) = ground_truth(text);
            assert_eq!(truth, expect, "bad fixture: {text}");
            assert_eq!(decide_sl(&p.database, &p.tgds).unwrap(), expect, "{text}");
            assert_eq!(
                decide(&p.database, &p.tgds, &mut p.symbols).unwrap(),
                expect
            );
        }
    }

    #[test]
    fn l_decider_handles_example_7_1() {
        // chase terminates but plain WA says no — simplification fixes it.
        let (mut p, truth) = ground_truth("r(a, b).\nr(X, X) -> r(Z, X).");
        assert!(truth);
        assert!(decide_l(&p.database, &p.tgds, &mut p.symbols).unwrap());
        // And the diagonal database also terminates (one step).
        let (mut p2, truth2) = ground_truth("r(a, a).\nr(X, X) -> r(Z, X).");
        assert!(truth2);
        assert!(decide_l(&p2.database, &p2.tgds, &mut p2.symbols).unwrap());
    }

    #[test]
    fn l_decider_detects_divergence() {
        let (mut p, truth) = ground_truth("r(a, b).\nr(X, X) -> r(X, Z).\nr(X, Y) -> r(Y, Y).");
        assert!(!truth);
        assert!(!decide_l(&p.database, &p.tgds, &mut p.symbols).unwrap());
    }

    #[test]
    fn g_decider_agrees_with_chase() {
        for (text, expect) in [
            // Terminating guarded set with a join body.
            (
                "r(a, b).\ns(a).\nr(X, Y), s(X) -> t(X, Y, Z).\nt(X, Y, Z) -> u(Y).",
                true,
            ),
            // Diverging guarded set: the side predicate s keeps the
            // existential cycle alive.
            ("r(a, b).\ns(a).\nr(X, Y), s(X) -> r(Y, Z), s(Y).", false),
            // Same rules but the side atom never joins: no trigger at all.
            ("r(a, b).\ns(c).\nr(X, Y), s(X) -> r(Y, Z), s(Y).", true),
            // Dies after one step: s is consumed, never re-derived. The
            // *plain* dependency graph has a supported special cycle on r,
            // so a naive WA check would wrongly report divergence — the
            // type information of gsimple is what gets this right.
            ("r(a, b).\ns(b).\nr(X, Y), s(Y) -> r(Y, Z).", true),
        ] {
            let (mut p, truth) = ground_truth(text);
            assert_eq!(truth, expect, "bad fixture: {text}");
            assert_eq!(
                decide_g(&p.database, &p.tgds, &mut p.symbols).unwrap(),
                expect,
                "{text}"
            );
        }
    }

    #[test]
    fn general_tgds_are_refused() {
        let mut p = parse_program("r(X, Y), s(Y, Z) -> t(X, Z).").unwrap();
        assert!(matches!(
            decide(&p.database, &p.tgds, &mut p.symbols),
            Err(CoreError::Undecidable)
        ));
    }

    #[test]
    fn naive_decider_agrees_when_feasible() {
        let (p, truth) = ground_truth("r(a, b).\nr(X, Y) -> s(X, Z).\ns(X, Y) -> t(X).");
        assert!(truth);
        // f_SL for this Σ is large but the chase terminates quickly below
        // budget, so the salvage path answers Some(true).
        let verdict = decide_naive(&p.database, &p.tgds, TgdClass::SimpleLinear, 100_000).unwrap();
        assert_eq!(verdict, Some(true));
    }

    #[test]
    fn naive_decider_reports_infeasible_divergence_as_none() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        // Bound ≈ 3·4^12 ≫ 10_000: budget too small, chase diverges →
        // cannot conclude.
        let verdict = decide_naive(&p.database, &p.tgds, TgdClass::SimpleLinear, 10_000).unwrap();
        assert_eq!(verdict, None);
    }

    // Divergence *proofs* by the naive decider require chasing all the
    // way to |D|·f_C(Σ) atoms (≈ 5·10⁷ even for the two-atom successor
    // rule) — exercised by the E10/E11 benches, not by unit tests.

    /// Every guarded decide interns its type and simplified predicates
    /// afresh, so on a shared symbol table each name collides with the
    /// previous call's. The names must stay within a few bytes of their
    /// bases however many calls share the table.
    #[test]
    fn repeated_decides_keep_predicate_names_short() {
        let mut p = parse_program(
            "emp(X, D), active(X) -> worksfor(X, D, M).\n\
             worksfor(X, D, M) -> mgr(M, D).\n\
             mgr(M, D), senior(D) -> emp(M, D), active(M).\n\
             emp(X, D) -> dept(D).\n\
             emp(e0, d0).\nactive(e0).\nsenior(d0).\nemp(e1, d1).\nactive(e1).",
        )
        .unwrap();
        let longest = |symbols: &SymbolTable| {
            (0..symbols.pred_count() as u32)
                .map(|i| symbols.pred_name(nuchase_model::PredId(i)).len())
                .max()
                .unwrap()
        };
        assert!(!decide(&p.database, &p.tgds, &mut p.symbols).unwrap());
        let first = longest(&p.symbols);
        for _ in 1..300 {
            assert!(!decide(&p.database, &p.tgds, &mut p.symbols).unwrap());
        }
        // At most two `'<id>` suffixes (a type's and its simplification's).
        let suffix = 1 + p.symbols.pred_count().to_string().len();
        assert!(
            longest(&p.symbols) <= first + 2 * suffix,
            "a predicate name grew from {first} to {} bytes",
            longest(&p.symbols)
        );
    }
}
