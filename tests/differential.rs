//! Cross-crate differential tests: independent implementations of the
//! same paper object must agree.

use nuchase::check_wa::check_not_weakly_acyclic;
use nuchase::ucq::UcqDecider;
use nuchase::{decide_g, decide_l, decide_sl, is_weakly_acyclic};
use nuchase_engine::semi_oblivious_chase;
use nuchase_gen::{random_program, RandomConfig};
use nuchase_model::TgdClass;

/// SCC-based weak-acyclicity vs the determinized Algorithm 1, on a random
/// suite across all classes (both are defined for arbitrary TGDs).
#[test]
fn wa_deciders_agree_on_random_programs() {
    for class in [TgdClass::SimpleLinear, TgdClass::Linear, TgdClass::Guarded] {
        for seed in 0..80u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            let scc = is_weakly_acyclic(&p.database, &p.tgds);
            let alg1 = !check_not_weakly_acyclic(&p.database, &p.tgds);
            assert_eq!(scc, alg1, "class {class:?} seed {seed}");
        }
    }
}

/// The SL syntactic decider vs chase ground truth on random programs.
#[test]
fn sl_decider_vs_chase_ground_truth() {
    let mut checked = 0;
    for seed in 0..100u64 {
        let p = random_program(&RandomConfig {
            class: TgdClass::SimpleLinear,
            seed,
            ..Default::default()
        });
        let verdict = decide_sl(&p.database, &p.tgds).unwrap();
        let r = semi_oblivious_chase(&p.database, &p.tgds, 50_000);
        if r.terminated() {
            assert!(
                verdict,
                "seed {seed}: chase finite but decider says infinite"
            );
        } else {
            assert!(
                !verdict,
                "seed {seed}: chase exceeded budget but decider says finite"
            );
        }
        checked += 1;
    }
    assert_eq!(checked, 100);
}

/// The L decider (simplification) vs chase ground truth.
#[test]
fn l_decider_vs_chase_ground_truth() {
    for seed in 0..100u64 {
        let mut p = random_program(&RandomConfig {
            class: TgdClass::Linear,
            seed,
            ..Default::default()
        });
        let verdict = decide_l(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let r = semi_oblivious_chase(&p.database, &p.tgds, 50_000);
        assert_eq!(verdict, r.terminated(), "seed {seed}");
    }
}

/// The G decider (gsimple) vs chase ground truth.
#[test]
fn g_decider_vs_chase_ground_truth() {
    for seed in 0..50u64 {
        let mut p = random_program(&RandomConfig {
            class: TgdClass::Guarded,
            seed,
            ..Default::default()
        });
        let Ok(verdict) = decide_g(&p.database, &p.tgds, &mut p.symbols) else {
            continue; // rewrite budget (rare, pathological schemas)
        };
        let r = semi_oblivious_chase(&p.database, &p.tgds, 50_000);
        assert_eq!(verdict, r.terminated(), "seed {seed}");
    }
}

/// The compiled UCQ deciders vs the graph-based deciders, SL and L.
#[test]
fn ucq_deciders_agree_with_graph_deciders() {
    for seed in 0..100u64 {
        let p = random_program(&RandomConfig {
            class: TgdClass::SimpleLinear,
            seed,
            ..Default::default()
        });
        let ucq = UcqDecider::for_simple_linear(&p.tgds, &p.symbols).unwrap();
        let graph = decide_sl(&p.database, &p.tgds).unwrap();
        assert_eq!(ucq.terminates(&p.database), graph, "SL seed {seed}");
    }
    for seed in 0..100u64 {
        let mut p = random_program(&RandomConfig {
            class: TgdClass::Linear,
            seed,
            ..Default::default()
        });
        let ucq = UcqDecider::for_linear(&p.tgds, &mut p.symbols).unwrap();
        let graph = decide_l(&p.database, &p.tgds, &mut p.symbols).unwrap();
        assert_eq!(ucq.terminates(&p.database), graph, "L seed {seed}");
    }
}

/// Crafted linear programs stressing the equality-pattern UCQ of
/// Theorem 7.7 (repeated body variables; facts refining/coarsening the
/// critical patterns).
#[test]
fn ucq_linear_crafted_patterns() {
    use nuchase_model::parse_program;
    for (rules, cases) in [
        (
            // Example 7.1: never diverges.
            "r(X, X) -> r(Z, X).",
            vec![("r(a, a).", true), ("r(a, b).", true)],
        ),
        (
            // Diagonal loop: r(t,t) regenerates diagonals forever.
            "r(X, X) -> r(X, Z).
r(X, Y) -> r(Y, Y).",
            vec![("r(a, b).", false), ("r(a, a).", false), ("s(a).", true)],
        ),
        (
            // Successor rule: any r-fact (diagonal or not) diverges.
            "r(X, Y) -> r(Y, Z).",
            vec![("r(a, a).", false), ("r(a, b).", false), ("q(a).", true)],
        ),
        (
            // Fires only on triples with pattern (1,1,2); the produced
            // atom has pattern (1,2,3) and never re-fires.
            "t(X, X, Y) -> t(Y, Z, W).",
            vec![
                ("t(a, a, b).", true),
                ("t(a, b, c).", true),
                ("t(a, a, a).", true),
            ],
        ),
        (
            // Same body, but the head re-creates the dangerous pattern.
            "t(X, X, Y) -> t(Y, Y, Z).",
            vec![("t(a, a, b).", false), ("t(a, b, c).", true)],
        ),
    ] {
        let mut base = parse_program(rules).unwrap();
        let ucq = UcqDecider::for_linear(&base.tgds, &mut base.symbols).unwrap();
        for (db_text, expect) in cases {
            let mut symbols = base.symbols.clone();
            let db = nuchase_model::parse_database(db_text, &mut symbols).unwrap();
            // Cross-check the fixture against the chase itself.
            let truth = semi_oblivious_chase(&db, &base.tgds, 30_000).terminated();
            assert_eq!(truth, expect, "fixture wrong: {rules} on {db_text}");
            assert_eq!(
                ucq.terminates(&db),
                expect,
                "UCQ decider wrong: {rules} on {db_text}"
            );
            // And the graph decider agrees too.
            let mut s2 = symbols.clone();
            assert_eq!(
                nuchase::decide_l(&db, &base.tgds, &mut s2).unwrap(),
                expect,
                "graph decider wrong: {rules} on {db_text}"
            );
        }
    }
}

/// The L decider must agree with the SL decider on SL inputs (SL ⊆ L),
/// and the G decider with both on SL inputs (SL ⊆ G).
#[test]
fn deciders_agree_down_the_class_ladder() {
    for seed in 0..60u64 {
        let mut p = random_program(&RandomConfig {
            class: TgdClass::SimpleLinear,
            seed,
            ..Default::default()
        });
        let sl = decide_sl(&p.database, &p.tgds).unwrap();
        let l = decide_l(&p.database, &p.tgds, &mut p.symbols).unwrap();
        assert_eq!(sl, l, "SL vs L, seed {seed}");
        let g = decide_g(&p.database, &p.tgds, &mut p.symbols).unwrap();
        assert_eq!(sl, g, "SL vs G, seed {seed}");
    }
}

/// `complete(D, Σ)` vs the restriction of a terminating chase, on random
/// guarded programs.
#[test]
fn completion_vs_terminating_chase() {
    let mut checked = 0;
    for seed in 0..60u64 {
        let mut p = random_program(&RandomConfig {
            class: TgdClass::Guarded,
            seed,
            ..Default::default()
        });
        let r = semi_oblivious_chase(&p.database, &p.tgds, 30_000);
        if !r.terminated() {
            continue;
        }
        let complete = nuchase_rewrite::complete(&p.database, &p.tgds, &mut p.symbols).unwrap();
        let dom: Vec<nuchase_model::Term> = p.database.dom_iter().collect();
        let reference: nuchase_model::Instance = r
            .instance
            .iter()
            .filter(|a| a.args.iter().all(|t| dom.contains(t)))
            .map(|a| a.to_atom())
            .collect();
        assert!(
            complete.set_eq(&reference),
            "seed {seed}: complete() deviates from chase restriction"
        );
        checked += 1;
    }
    assert!(checked > 20, "too few terminating samples ({checked})");
}

/// Three engines, one result: the preserved seed baseline, the
/// sequential compiled-plan engine, and the parallel executor must agree
/// on the chase of random programs (atom set, null count, fired-trigger
/// count) — and the two production engines must agree byte-for-byte.
#[test]
fn parallel_executor_agrees_with_baseline_and_sequential() {
    use nuchase_engine::{baseline_semi_oblivious_chase, chase, ChaseBudget, ChaseConfig};
    // Default to a 2-worker pool; the CI matrix overrides via
    // NUCHASE_THREADS (1 and 4) so the bypass path and a wider pool are
    // both exercised against the seed baseline.
    let pool_threads = std::env::var("NUCHASE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2);
    let mut checked = 0;
    for class in [TgdClass::SimpleLinear, TgdClass::Linear, TgdClass::Guarded] {
        for seed in 0..20u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            let cfg = ChaseConfig {
                budget: ChaseBudget::atoms(20_000),
                ..Default::default()
            };
            let sequential = chase(&p.database, &p.tgds, &cfg);
            let parallel = chase(
                &p.database,
                &p.tgds,
                &ChaseConfig {
                    threads: pool_threads,
                    ..cfg
                },
            );
            assert_eq!(
                sequential.outcome, parallel.outcome,
                "{class:?} seed {seed}"
            );
            assert!(
                sequential.instance.indexed_eq(&parallel.instance),
                "{class:?} seed {seed}: parallel deviates from sequential"
            );
            if !sequential.terminated() {
                continue;
            }
            let baseline = baseline_semi_oblivious_chase(&p.database, &p.tgds, 20_000);
            assert!(
                baseline.instance.set_eq(&parallel.instance),
                "{class:?} seed {seed}: parallel deviates from the seed baseline"
            );
            assert_eq!(
                baseline.stats.triggers_fired, parallel.stats.triggers_fired,
                "{class:?} seed {seed}"
            );
            assert_eq!(
                baseline.nulls.len(),
                parallel.nulls.len(),
                "{class:?} seed {seed}"
            );
            checked += 1;
        }
    }
    assert!(checked > 30, "too few terminating samples ({checked})");
}

/// Does the environment keep every round off the batch path? The CI
/// legs `NUCHASE_FORCE_BATCH_ENUM=0` and `NUCHASE_FORCE_PIPELINE=0`
/// (whose fused rounds never batch) do, and an explicit
/// `BatchEnum::Auto` defers to them.
fn env_forbids_batching() -> bool {
    let off = |name| {
        matches!(
            std::env::var(name).as_deref().map(str::trim),
            Ok("0") | Ok("false")
        )
    };
    off("NUCHASE_FORCE_BATCH_ENUM") || off("NUCHASE_FORCE_PIPELINE")
}

/// The columnar batch enumeration path vs the per-trigger backtracking
/// search on a transitive-closure workload whose later rounds are wide
/// enough to cross the batch floor naturally — the shape the batch path
/// exists for. Forced on, and Auto (whose floor the workload crosses),
/// both against an explicit per-trigger reference, at thread counts
/// 0, 1, and 2 (helpers drain the wide rounds).
#[test]
fn batch_enumeration_agrees_on_wide_transitive_closure_rounds() {
    use nuchase_engine::{chase, BatchEnum, ChaseBudget, ChaseConfig};
    use nuchase_model::{Atom, Instance, SymbolTable, Term, Tgd, TgdSet, VarId};
    let n = 160u32;
    let mut symbols = SymbolTable::new();
    let e = symbols.pred_unchecked("e", 2);
    let mut db = Instance::new();
    for i in 0..n {
        let a = Term::Const(symbols.constant(&format!("n{i}")));
        let b = Term::Const(symbols.constant(&format!("n{}", i + 1)));
        db.insert(Atom::new(e, vec![a, b]));
    }
    let v = |i: u32| Term::Var(VarId(i));
    let tgd = Tgd::new(
        vec![
            Atom::new(e, vec![v(0), v(1)]),
            Atom::new(e, vec![v(1), v(2)]),
        ],
        vec![Atom::new(e, vec![v(0), v(2)])],
    )
    .unwrap();
    let tgds = TgdSet::new(vec![tgd]);
    let base = ChaseConfig {
        budget: ChaseBudget::atoms(40_000),
        batch_enum: BatchEnum::Off,
        ..Default::default()
    };
    let reference = chase(&db, &tgds, &base);
    assert!(reference.terminated());
    // Closure of a 161-node chain: one edge per ordered pair.
    let nodes = n as usize + 1;
    assert_eq!(reference.instance.len(), nodes * (nodes - 1) / 2);
    for threads in [0usize, 1, 2] {
        let legs = [
            (
                "forced on",
                ChaseConfig {
                    batch_enum: BatchEnum::On,
                    threads,
                    ..base
                },
            ),
            (
                "auto past floor",
                ChaseConfig {
                    batch_enum: BatchEnum::Auto,
                    threads,
                    ..base
                },
            ),
        ];
        for (label, cfg) in legs {
            let batched = chase(&db, &tgds, &cfg);
            let label = format!("{label}, {threads} threads");
            // The closure's eighth round has a delta of 4128 atoms (the
            // paths of lengths 129..160), past the batch floor of 4096,
            // so even the Auto leg batches.
            assert!(
                batched.stats.batched_rounds > 0 || env_forbids_batching(),
                "{label}: no batched round"
            );
            assert_eq!(reference.outcome, batched.outcome, "{label}: outcome");
            assert!(
                reference.instance.indexed_eq(&batched.instance),
                "{label}: batch path deviates from per-trigger"
            );
            assert_eq!(reference.stats.rounds, batched.stats.rounds, "{label}");
            assert_eq!(
                reference.stats.triggers_considered, batched.stats.triggers_considered,
                "{label}: considered"
            );
            assert_eq!(
                reference.stats.triggers_fired, batched.stats.triggers_fired,
                "{label}: fired"
            );
            assert_eq!(reference.nulls.len(), batched.nulls.len(), "{label}");
        }
    }
}

/// Oblivious ⊇ semi-oblivious ⊇ restricted on terminating runs (result
/// sizes; the oblivious chase fires strictly more triggers).
#[test]
fn chase_variant_size_ordering() {
    use nuchase_engine::{chase, ChaseConfig, ChaseVariant};
    for seed in 0..40u64 {
        let p = random_program(&RandomConfig {
            class: TgdClass::SimpleLinear,
            seed,
            ..Default::default()
        });
        let run = |variant| {
            chase(
                &p.database,
                &p.tgds,
                &ChaseConfig {
                    variant,
                    ..Default::default()
                },
            )
        };
        let so = run(ChaseVariant::SemiOblivious);
        if !so.terminated() {
            continue;
        }
        let ob = run(ChaseVariant::Oblivious);
        let re = run(ChaseVariant::Restricted);
        if ob.terminated() {
            assert!(ob.instance.len() >= so.instance.len(), "seed {seed}");
        }
        if re.terminated() {
            assert!(re.instance.len() <= so.instance.len(), "seed {seed}");
        }
    }
}
