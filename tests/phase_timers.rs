//! The phase timers and path counters that `ChaseStats` reports must
//! describe the run they come from: the round-phase spans add up to the
//! wall they split, the apply split adds up to the apply span, a chain
//! chase takes the fused path on every round (and the forced pipeline on
//! none), and a wide star join under forced batch enumeration ends at
//! its closed-form size with a nonzero emit span.
//!
//! `ApplyPath::Auto` and `BatchEnum::Auto` defer to the
//! `NUCHASE_FORCE_PIPELINE` / `NUCHASE_FORCE_BATCH_ENUM` overrides, so
//! run this file without them.

use nuchase_engine::{chase, ApplyPath, BatchEnum, ChaseBudget, ChaseConfig, ChaseStats};
use nuchase_model::{parse_program, Atom, Instance, SymbolTable, Term, Tgd, TgdSet, VarId};

/// `r(a, b)` with `r(X, Y) -> r(Y, Z)`: one trigger per round, the
/// micro-round shape the fused path exists for.
fn successor_chain(budget: usize) -> (Instance, TgdSet, usize) {
    let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
    (p.database, p.tgds, budget)
}

/// Transitive closure of an `n`-edge path: few rounds, each wide and
/// mostly duplicate triggers. The fixpoint has `n(n+1)/2` atoms.
fn transitive_closure(n: u32) -> (Instance, TgdSet, usize) {
    let mut text: String = (0..n).map(|i| format!("e(c{i}, c{}).\n", i + 1)).collect();
    text.push_str("e(X, Y), e(Y, Z) -> e(X, Z).");
    let p = parse_program(&text).unwrap();
    (p.database, p.tgds, 200_000)
}

/// The Prop 4.5 depth family: `|D| = n` atoms, and the chase adds
/// `n − 1` more.
fn depth_family(n: usize) -> (Instance, TgdSet, usize) {
    let p = nuchase_gen::depth_family(n);
    (p.database, p.tgds, 10_000_000)
}

/// A multi-round star join: three edge relations share the hub
/// variable, so each body match intersects three hub-keyed posting
/// lists — the ≥3-atom variable-at-a-time shape the columnar batch
/// enumeration targets. Hubs activate in waves (`chains` per round,
/// driven by a `hub`/`hnext` chain), and each wave's hubs see a leaf
/// window that advances by `advance` over the previous wave's window of
/// width `fanout`. Every round therefore enumerates
/// `chains · fanout³` candidate homomorphisms, of which
///
/// * `(fanout − advance)³ / fanout³` collapse onto triples fired in an
///   earlier wave (killed against the ever-growing fired set), and
/// * the rest collapse `chains`-to-one onto new frontier images
///   (killed intra-round by the trigger dedup).
fn star_join(
    chains: u32,
    waves: u32,
    fanout: u32,
    advance: u32,
    budget: usize,
) -> (Instance, TgdSet, usize) {
    let mut symbols = SymbolTable::new();
    let hub = symbols.pred_unchecked("hub", 1);
    let hnext = symbols.pred_unchecked("hnext", 2);
    let e0 = symbols.pred_unchecked("e0", 2);
    let e1 = symbols.pred_unchecked("e1", 2);
    let e2 = symbols.pred_unchecked("e2", 2);
    let q = symbols.pred_unchecked("q", 3);
    let mut db = Instance::new();
    for c in 0..chains {
        for w in 0..waves {
            let h = Term::Const(symbols.constant(&format!("h{c}_{w}")));
            let lo = w * advance;
            for i in lo..lo + fanout {
                let a = Term::Const(symbols.constant(&format!("a{i}")));
                let b = Term::Const(symbols.constant(&format!("b{i}")));
                let cc = Term::Const(symbols.constant(&format!("c{i}")));
                db.insert(Atom::new(e0, vec![h, a]));
                db.insert(Atom::new(e1, vec![h, b]));
                db.insert(Atom::new(e2, vec![h, cc]));
            }
            if w == 0 {
                db.insert(Atom::new(hub, vec![h]));
            }
            if w + 1 < waves {
                let h2 = Term::Const(symbols.constant(&format!("h{c}_{}", w + 1)));
                db.insert(Atom::new(hnext, vec![h, h2]));
            }
        }
    }
    let v = |i: u32| Term::Var(VarId(i));
    let advance_rule = Tgd::new(
        vec![
            Atom::new(hub, vec![v(0)]),
            Atom::new(hnext, vec![v(0), v(1)]),
        ],
        vec![Atom::new(hub, vec![v(1)])],
    )
    .unwrap();
    let star_rule = Tgd::new(
        vec![
            Atom::new(hub, vec![v(0)]),
            Atom::new(e0, vec![v(0), v(1)]),
            Atom::new(e1, vec![v(0), v(2)]),
            Atom::new(e2, vec![v(0), v(3)]),
        ],
        vec![Atom::new(q, vec![v(1), v(2), v(3)])],
    )
    .unwrap();
    (db, TgdSet::new(vec![advance_rule, star_rule]), budget)
}

/// Every workload the timer checks sweep, by name.
fn workloads() -> Vec<(&'static str, (Instance, TgdSet, usize))> {
    vec![
        ("successor_chain_10k", successor_chain(10_000)),
        ("transitive_closure_120", transitive_closure(120)),
        ("star_join_16x6", star_join(4, 4, 6, 3, 20_000)),
        ("depth_family_5k", depth_family(5_000)),
    ]
}

/// The configurations the timer checks sweep: the default paths, the
/// forced staged pipeline, and batch enumeration forced off and on.
fn legs(budget: usize, threads: usize) -> Vec<(&'static str, ChaseConfig)> {
    let base = ChaseConfig {
        budget: ChaseBudget::atoms(budget),
        threads,
        ..Default::default()
    };
    vec![
        ("auto", base),
        (
            "pipeline",
            ChaseConfig {
                apply_path: ApplyPath::Pipeline,
                ..base
            },
        ),
        (
            "pertrigger",
            ChaseConfig {
                batch_enum: BatchEnum::Off,
                ..base
            },
        ),
        (
            "batch",
            ChaseConfig {
                batch_enum: BatchEnum::On,
                ..base
            },
        ),
    ]
}

/// The phase timers are carried boundary-to-boundary spans of the round
/// loop, so `enumerate + dedup + apply + pool` must cover the measured
/// wall to within 10% (plus 2 ms absolute slack for out-of-loop setup),
/// and the probe/emit sub-timers partition the enumerate span (probe is
/// the lap minus the measured emit, so only float accumulation separates
/// them).
fn assert_wall_accounted(label: &str, s: &ChaseStats) {
    let covered = s.enumerate_secs + s.dedup_secs + s.apply_secs + s.pool_secs;
    assert!(
        covered >= 0.90 * s.wall_secs - 0.002 && covered <= 1.10 * s.wall_secs + 0.002,
        "{label}: phase timers {covered:.4}s do not account for wall {:.4}s",
        s.wall_secs
    );
    let enum_sum = s.probe_secs + s.emit_secs;
    assert!(
        (enum_sum - s.enumerate_secs).abs() <= 1e-6 + 0.01 * s.enumerate_secs,
        "{label}: probe {:.4}s + emit {:.4}s != enumerate {:.4}s",
        s.probe_secs,
        s.emit_secs,
        s.enumerate_secs
    );
}

#[test]
fn phase_timers_account_for_the_wall() {
    for (name, (db, tgds, budget)) in workloads() {
        for threads in [0usize, 2] {
            for (leg, cfg) in legs(budget, threads) {
                let r = chase(&db, &tgds, &cfg);
                assert_wall_accounted(&format!("{name} {leg} threads {threads}"), &r.stats);
            }
        }
    }
}

/// resolve and commit are nested sub-spans partitioning the apply step,
/// so their sum tracks `apply_secs` up to timer overhead.
#[test]
fn resolve_and_commit_partition_apply() {
    for (name, (db, tgds, budget)) in workloads() {
        for threads in [0usize, 2] {
            for (leg, cfg) in legs(budget, threads) {
                let s = chase(&db, &tgds, &cfg).stats;
                let sum = s.resolve_secs + s.commit_secs;
                assert!(
                    (sum - s.apply_secs).abs() <= 0.02 + 0.05 * s.apply_secs,
                    "{name} {leg} threads {threads}: resolve {:.4}s + commit {:.4}s \
                     != apply {:.4}s",
                    s.resolve_secs,
                    s.commit_secs,
                    s.apply_secs
                );
            }
        }
    }
}

/// A successor chain runs one trigger per round: the auto apply path
/// fuses every round, the forced pipeline none, and the fused walk books
/// its probes through the prefetch queue.
#[test]
fn chain_rounds_fuse_under_auto_and_never_under_pipeline() {
    let (db, tgds, budget) = successor_chain(10_000);
    let cfg = ChaseConfig {
        budget: ChaseBudget::atoms(budget),
        ..Default::default()
    };
    let auto = chase(&db, &tgds, &cfg).stats;
    assert!(auto.rounds > 1_000, "{} rounds", auto.rounds);
    assert!(auto.avg_triggers_per_round() < 1.5);
    assert_eq!(auto.fused_rounds, auto.rounds, "auto left rounds unfused");
    assert!(auto.batched_probes > 0, "no batched probes booked");
    assert!(auto.prefetch_queue_depth >= 1, "no prefetch queue depth");

    let pipeline = chase(
        &db,
        &tgds,
        &ChaseConfig {
            apply_path: ApplyPath::Pipeline,
            ..cfg
        },
    )
    .stats;
    assert_eq!(pipeline.fused_rounds, 0, "the forced pipeline fused rounds");
    assert_eq!(pipeline.rounds, auto.rounds);
}

/// `star_join(4, 4, 6, 3)` under forced batch enumeration ends at its
/// closed-form size: the database (16 hub-waves × 18 edges, 4 initial
/// hubs, 12 `hnext` links), 12 activated hubs, and the `q` triples —
/// 6³ for the first wave and 6³ − 3³ new ones for each of the three
/// later waves.
#[test]
fn star_join_batch_enumeration_reaches_the_closed_form_size() {
    let (db, tgds, budget) = star_join(4, 4, 6, 3, 20_000);
    let r = chase(
        &db,
        &tgds,
        &ChaseConfig {
            budget: ChaseBudget::atoms(budget),
            batch_enum: BatchEnum::On,
            ..Default::default()
        },
    );
    assert!(r.terminated());
    assert_eq!(
        r.instance.len(),
        (16 * 18 + 4 + 12) + 12 + (216 + 3 * (216 - 27))
    );
    assert!(r.stats.emit_secs > 0.0, "batch rounds booked no emit time");
}
