//! Thread-count determinism tests. Every `threads` setting runs the
//! one round loop ([`crate::session`]); these pin that a chase at
//! `threads ≥ 1` — with the scheduler's helpers draining wide rounds —
//! is byte-identical to the same chase at `threads: 0`.

#[cfg(test)]
mod tests {
    use crate::chase::{chase, ChaseBudget, ChaseConfig, ChaseOutcome, ChaseResult, ChaseVariant};
    use crate::sched::{auto_threads, RESOLVE_POOL_MIN};
    use nuchase_model::{parse_program, Atom, Instance, SymbolTable, Term, TgdSet, VarId};

    fn config(threads: usize) -> ChaseConfig {
        ChaseConfig {
            threads,
            record_provenance: true,
            build_forest: true,
            ..Default::default()
        }
    }

    fn assert_identical(a: &ChaseResult, b: &ChaseResult, label: &str) {
        assert_eq!(a.outcome, b.outcome, "{label}: outcome");
        assert!(a.instance.indexed_eq(&b.instance), "{label}: instance");
        assert_eq!(a.stats.rounds, b.stats.rounds, "{label}: rounds");
        assert_eq!(
            a.stats.triggers_considered, b.stats.triggers_considered,
            "{label}: considered"
        );
        assert_eq!(
            a.stats.triggers_fired, b.stats.triggers_fired,
            "{label}: fired"
        );
        assert_eq!(a.nulls.len(), b.nulls.len(), "{label}: null count");
        for i in 0..a.nulls.len() {
            let id = nuchase_model::NullId(i as u32);
            assert_eq!(a.nulls.depth(id), b.nulls.depth(id), "{label}: depth {i}");
            assert_eq!(a.nulls.key(id), b.nulls.key(id), "{label}: key {i}");
        }
        for idx in 0..a.instance.len() as u32 {
            assert_eq!(
                a.provenance.as_ref().unwrap().derivation(idx),
                b.provenance.as_ref().unwrap().derivation(idx),
                "{label}: provenance {idx}"
            );
        }
    }

    #[test]
    fn matches_sequential_on_closure_at_several_thread_counts() {
        let p = parse_program(
            "e(a, b).\ne(b, c).\ne(c, d).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X, W).",
        )
        .unwrap();
        let reference = chase(&p.database, &p.tgds, &config(0));
        assert!(reference.terminated());
        for threads in [1usize, 2, 3, 7] {
            let par = chase(&p.database, &p.tgds, &config(threads));
            assert_identical(&reference, &par, &format!("{threads} threads"));
        }
    }

    #[test]
    fn matches_sequential_on_budget_exhaustion() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let mut cfg = config(0);
        cfg.budget = ChaseBudget::atoms(500);
        let reference = chase(&p.database, &p.tgds, &cfg);
        assert_eq!(reference.outcome, ChaseOutcome::AtomLimit);
        for threads in [1usize, 2, 4] {
            cfg.threads = threads;
            let par = chase(&p.database, &p.tgds, &cfg);
            assert_identical(&reference, &par, &format!("{threads} threads"));
        }
    }

    #[test]
    fn matches_sequential_on_depth_budget() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let mut cfg = config(0);
        cfg.budget = ChaseBudget::depth(5, 1_000_000);
        let reference = chase(&p.database, &p.tgds, &cfg);
        assert_eq!(reference.outcome, ChaseOutcome::DepthLimit);
        cfg.threads = 3;
        let par = chase(&p.database, &p.tgds, &cfg);
        assert_identical(&reference, &par, "depth budget");
    }

    #[test]
    fn matches_sequential_on_round_budget() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let mut cfg = config(0);
        cfg.budget.max_rounds = 7;
        let reference = chase(&p.database, &p.tgds, &cfg);
        assert_eq!(reference.outcome, ChaseOutcome::RoundLimit);
        cfg.threads = 2;
        let par = chase(&p.database, &p.tgds, &cfg);
        assert_identical(&reference, &par, "round budget");
    }

    #[test]
    fn restricted_variant_is_deterministic_under_the_phase_split() {
        // The activeness re-check runs in the commit stage against the
        // mutating instance; canonical order makes it identical at any
        // thread count.
        let p = parse_program(
            "r(a, b).\ns(a, c).\nr(a2, b2).\nr(X, Y) -> s(X, Z).\ns(X, Y) -> t(Y, W).",
        )
        .unwrap();
        let mut cfg = config(0);
        cfg.variant = ChaseVariant::Restricted;
        let reference = chase(&p.database, &p.tgds, &cfg);
        assert!(reference.terminated());
        for threads in [1usize, 2, 7] {
            cfg.threads = threads;
            let par = chase(&p.database, &p.tgds, &cfg);
            assert_identical(&reference, &par, &format!("restricted, {threads} threads"));
        }
    }

    /// A one-round star wide enough to cross [`RESOLVE_POOL_MIN`], so the
    /// resolve stage actually fans out over the pool (the other tests
    /// stay under the threshold and resolve inline).
    fn wide_star(facts: u32) -> (Instance, TgdSet) {
        let mut symbols = SymbolTable::new();
        let r = symbols.pred_unchecked("r", 2);
        let s = symbols.pred_unchecked("s", 2);
        let mut db = Instance::new();
        for i in 0..facts {
            let a = Term::Const(symbols.constant(&format!("a{i}")));
            let b = Term::Const(symbols.constant(&format!("b{i}")));
            db.insert(Atom::new(r, vec![a, b]));
        }
        let v = |i: u32| Term::Var(VarId(i));
        let tgd = nuchase_model::Tgd::new(
            vec![Atom::new(r, vec![v(0), v(1)])],
            vec![Atom::new(s, vec![v(1), v(2)])],
        )
        .unwrap();
        (db, TgdSet::new(vec![tgd]))
    }

    #[test]
    fn pooled_resolve_matches_sequential_on_wide_rounds() {
        let (db, tgds) = wide_star(3 * RESOLVE_POOL_MIN as u32);
        let reference = chase(&db, &tgds, &config(0));
        assert!(reference.terminated());
        assert_eq!(reference.nulls.len(), 3 * RESOLVE_POOL_MIN);
        for threads in [2usize, 5] {
            let par = chase(&db, &tgds, &config(threads));
            assert_identical(&reference, &par, &format!("wide star, {threads} threads"));
        }
    }

    #[test]
    fn pooled_resolve_matches_sequential_on_wide_restricted_rounds() {
        // Same width, restricted variant: provisional-null re-basing and
        // commit-time re-checks under the pooled resolve path.
        let (db, tgds) = wide_star(2 * RESOLVE_POOL_MIN as u32);
        let mut cfg = config(0);
        cfg.variant = ChaseVariant::Restricted;
        let reference = chase(&db, &tgds, &cfg);
        assert!(reference.terminated());
        for threads in [2usize, 3] {
            cfg.threads = threads;
            let par = chase(&db, &tgds, &cfg);
            assert_identical(
                &reference,
                &par,
                &format!("wide restricted star, {threads} threads"),
            );
        }
    }

    #[test]
    fn empty_database_terminates_immediately() {
        let p = parse_program("r(X, Y) -> r(Y, Z).").unwrap();
        let par = chase(&p.database, &p.tgds, &config(4));
        assert!(par.terminated());
        assert_eq!(par.instance.len(), 0);
        assert_eq!(par.stats.rounds, 1);
    }

    #[test]
    fn chase_dispatches_on_threads() {
        let p = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let seq = chase(&p.database, &p.tgds, &config(0));
        let par = chase(&p.database, &p.tgds, &config(2));
        assert_identical(&seq, &par, "dispatch");
    }

    #[test]
    fn pool_runs_many_chases_without_respawning() {
        // One engine, one persistent scheduler, many pooled sessions —
        // the workers park between runs and every result stays
        // identical.
        use crate::session::{Engine, PreparedProgram};
        let p = parse_program(
            "e(a, b).\ne(b, c).\ne(c, d).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X, W).",
        )
        .unwrap();
        let reference = chase(&p.database, &p.tgds, &config(0));
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::from_config(&config(3));
        for i in 0..5 {
            let r = engine.chase(&program, &p.database);
            assert_identical(&reference, &r, &format!("pooled run {i}"));
        }
    }

    #[test]
    fn concurrent_pooled_chases_on_one_engine_stay_identical() {
        // Concurrent sessions share the scheduler board instead of
        // queueing at a gate: runs interleave freely and every result
        // stays byte-identical. (Identity across wide concurrent rounds
        // is pinned by `tests/concurrent_sessions.rs`.)
        use crate::session::{Engine, PreparedProgram};
        let p = parse_program(
            "e(a, b).\ne(b, c).\ne(c, d).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X, W).",
        )
        .unwrap();
        let reference = chase(&p.database, &p.tgds, &config(0));
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::from_config(&config(2));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..3 {
                        let r = engine.chase(&program, &p.database);
                        assert!(r.instance.indexed_eq(&reference.instance));
                        assert_eq!(r.nulls.len(), reference.nulls.len());
                    }
                });
            }
        });
    }

    #[test]
    fn auto_threads_is_positive() {
        assert!(auto_threads() >= 1);
    }
}
