//! The chase performance harness: before/after numbers for the hot path.
//!
//! Runs a set of deep-chase workloads through both engines —
//!
//! * **baseline**: the preserved seed implementation
//!   ([`nuchase_engine::baseline`]): per-pivot pattern clones, trail
//!   `Vec` per unification, `Box<[Term]>` dedup key per trigger
//!   considered, `Atom`-keyed hash maps;
//! * **optimized**: the compiled-plan engine ([`nuchase_engine::chase()`]):
//!   precompiled `MatchPlan`s, shared `Scratch`, in-place trigger dedup,
//!   arena instances —
//!
//! and emits `BENCH_chase.json` so subsequent performance work has a
//! trajectory to defend. Invoke with
//!
//! ```text
//! cargo run --release -p nuchase-bench --bin harness -- --bench-chase [out.json]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use nuchase_engine::{
    baseline_semi_oblivious_chase, chase, semi_oblivious_chase, ApplyPath, BatchEnum, ChaseBudget,
    ChaseConfig, ChaseStats, Engine, JobHandle, PreparedProgram, RuleTelemetry, TelemetryLevel,
};
use nuchase_model::{parse_database, Atom, Instance, SymbolTable, Term, Tgd, TgdSet};

/// Throughput numbers for one engine on one workload.
#[derive(Debug, Clone)]
pub struct EngineNumbers {
    /// Final instance size (database included).
    pub atoms: usize,
    /// Triggers enumerated before dedup.
    pub triggers_considered: usize,
    /// Semi-naive rounds executed.
    pub rounds: usize,
    /// Triggers enumerated per round — the fixed-cost-per-round story:
    /// values near 1 are the regime the fused micro-round path targets.
    pub triggers_per_round: f64,
    /// Rounds applied through the fused micro-round path.
    pub fused_rounds: usize,
    /// Best-of-N wall time, seconds.
    pub wall_secs: f64,
    /// Atoms created per second.
    pub atoms_per_sec: f64,
    /// Triggers considered per second.
    pub triggers_per_sec: f64,
    /// Wall time of the enumerate phase (0 for the seed baseline, which
    /// predates per-phase accounting).
    pub enumerate_secs: f64,
    /// Join-probe share of the enumerate phase (candidate walking,
    /// intersection, unification). `probe + emit` partitions
    /// `enumerate_secs`; per-trigger rounds land entirely here.
    pub probe_secs: f64,
    /// Emit share of the enumerate phase: draining columnar binding
    /// blocks through dedup into the trigger batch (batch rounds only).
    pub emit_secs: f64,
    /// Wall time of the dedup merge.
    pub dedup_secs: f64,
    /// Wall time of the apply step (plan + resolve + commit, or the
    /// fused pass).
    pub apply_secs: f64,
    /// Wall time of the resolve stage (the parallelizable part of apply).
    pub resolve_secs: f64,
    /// Wall time of the commit stage (the serial part of apply; fused
    /// rounds land entirely here).
    pub commit_secs: f64,
    /// Wall time of pooled-run worker release and teardown (0 on the
    /// serial executors, which have no pool to drain).
    pub pool_secs: f64,
    /// Peak instance heap footprint — arena and index capacities, bytes
    /// (the instance is append-only, so the end-of-run size is the peak).
    pub peak_instance_bytes: usize,
    /// Peak null-store heap footprint, bytes.
    pub peak_null_bytes: usize,
    /// Final load factor of the instance's open-addressing dedup table.
    pub instance_table_load: f64,
    /// Posting lists that overflowed their dense lane into a spill vec.
    pub index_spill_count: usize,
    /// Table probes issued through the batched/prefetched probe API
    /// (block-collector binned passes + the fused per-trigger queue).
    pub batched_probes: usize,
    /// High-water mark of the software prefetch queue.
    pub prefetch_queue_depth: usize,
}

impl EngineNumbers {
    fn from_stats(atoms: usize, stats: &ChaseStats) -> Self {
        EngineNumbers {
            atoms,
            triggers_considered: stats.triggers_considered,
            rounds: stats.rounds,
            triggers_per_round: stats.avg_triggers_per_round(),
            fused_rounds: stats.fused_rounds,
            wall_secs: stats.wall_secs,
            atoms_per_sec: stats.atoms_per_sec(),
            triggers_per_sec: stats.triggers_per_sec(),
            enumerate_secs: stats.enumerate_secs,
            probe_secs: stats.probe_secs,
            emit_secs: stats.emit_secs,
            dedup_secs: stats.dedup_secs,
            apply_secs: stats.apply_secs,
            resolve_secs: stats.resolve_secs,
            commit_secs: stats.commit_secs,
            pool_secs: stats.pool_secs,
            peak_instance_bytes: stats.peak_instance_bytes,
            peak_null_bytes: stats.peak_null_bytes,
            instance_table_load: stats.instance_table_load,
            index_spill_count: stats.index_spill_count,
            batched_probes: stats.batched_probes,
            prefetch_queue_depth: stats.prefetch_queue_depth,
        }
    }
}

/// The phase timers are carried boundary-to-boundary spans of the round
/// loop, so `enumerate + dedup + apply` must cover the measured wall to
/// within 10% (plus 2 ms absolute slack for out-of-loop setup). A
/// violation means a phase stopped being timed, was double-counted, or a
/// new per-round cost appeared outside every span — exactly the
/// unaccounted-wall gap this assertion exists to keep closed.
fn assert_wall_accounted(name: &str, detail: &str, n: &EngineNumbers) {
    let covered = n.enumerate_secs + n.dedup_secs + n.apply_secs + n.pool_secs;
    assert!(
        covered >= 0.90 * n.wall_secs - 0.002 && covered <= 1.10 * n.wall_secs + 0.002,
        "{name} {detail}: phase timers {covered:.4}s do not account for wall {:.4}s",
        n.wall_secs
    );
    // The probe/emit sub-timers partition the enumerate span exactly
    // (probe is computed as the lap minus the measured emit), so only
    // float accumulation separates them.
    let enum_sum = n.probe_secs + n.emit_secs;
    assert!(
        (enum_sum - n.enumerate_secs).abs() <= 1e-6 + 0.01 * n.enumerate_secs,
        "{name} {detail}: probe {:.4}s + emit {:.4}s != enumerate {:.4}s",
        n.probe_secs,
        n.emit_secs,
        n.enumerate_secs
    );
}

/// Before/after numbers for one workload.
#[derive(Debug, Clone)]
pub struct ChaseBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Atom budget of the run.
    pub budget: usize,
    /// Seed-engine numbers.
    pub baseline: EngineNumbers,
    /// Current-engine numbers with the apply path forced to the staged
    /// pipeline — the pre-fused engine, measured in the *same* harness
    /// run so the fused speedup is not a cross-run comparison.
    pub pipeline: EngineNumbers,
    /// Current-engine numbers with the wide-round batch enumeration
    /// forced off — the per-trigger backtracking engine, measured in the
    /// *same* harness run so the batch speedup is not a cross-run
    /// comparison.
    pub pertrigger: EngineNumbers,
    /// Current-engine numbers (`ApplyPath::Auto`: micro-rounds fused;
    /// `BatchEnum::Auto`: wide rounds columnar-batched).
    pub optimized: EngineNumbers,
    /// `baseline.wall_secs / optimized.wall_secs`.
    pub speedup: f64,
    /// `pipeline.wall_secs / optimized.wall_secs` — what the fused
    /// micro-round path buys over the staged pipeline, in-run.
    pub fused_speedup: f64,
    /// What the columnar batch enumeration buys over the per-trigger
    /// search, in-run: the median over interleaved run pairs of the
    /// per-pair `pertrigger.wall / optimized.wall` ratio (paired so
    /// machine-state drift cancels; median so one lucky draw on either
    /// leg cannot skew it). ~1.0 on chain workloads (no round ever
    /// crosses the batch floor).
    pub batch_speedup: f64,
    /// Per-rule attribution from one extra *untimed* run at
    /// [`TelemetryLevel::Counters`] — trigger and atom counts per TGD,
    /// in rule-id order. Kept out of every timed leg so the measured
    /// walls stay telemetry-free.
    pub rules: Vec<RuleTelemetry>,
}

pub(crate) fn successor_chain() -> (Instance, TgdSet, usize) {
    let p = nuchase_model::parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
    (p.database, p.tgds, 100_000)
}

pub(crate) fn transitive_closure(n: u32) -> (Instance, TgdSet, usize) {
    let mut symbols = SymbolTable::new();
    let e = symbols.pred_unchecked("e", 2);
    let mut db = Instance::new();
    for i in 0..n {
        let a = Term::Const(symbols.constant(&format!("c{i}")));
        let b = Term::Const(symbols.constant(&format!("c{}", i + 1)));
        db.insert(Atom::new(e, vec![a, b]));
    }
    let v = |i: u32| Term::Var(nuchase_model::VarId(i));
    let tgd = nuchase_model::Tgd::new(
        vec![
            Atom::new(e, vec![v(0), v(1)]),
            Atom::new(e, vec![v(1), v(2)]),
        ],
        vec![Atom::new(e, vec![v(0), v(2)])],
    )
    .unwrap();
    // Closure of an n-edge chain: n(n+1)/2 atoms — keep the budget above
    // the fixpoint so both engines run to termination.
    (db, TgdSet::new(vec![tgd]), 200_000)
}

/// A multi-round star join: three edge relations share the hub
/// variable, so each body match intersects three hub-keyed posting
/// lists — the ≥3-atom variable-at-a-time shape the columnar batch
/// enumeration targets. Hubs activate in waves (`chains` per round,
/// driven by a `hub`/`hnext` chain), and each wave's hubs see a leaf
/// window that advances by `advance` over the previous wave's window of
/// width `fanout`. Every round therefore enumerates
/// `chains · fanout³` candidate homomorphisms of which
///
/// * `(fanout − advance)³ / fanout³` collapse onto triples fired in an
///   earlier wave (killed against the ever-growing fired set), and
/// * the rest collapse `chains`-to-one onto new frontier images
///   (killed intra-round by the trigger dedup),
///
/// the duplicate-heavy saturating regime where enumeration + dedup
/// dominate wall and firing is a rounding error. Size `advance` so the
/// per-round delta (`fanout³ − (fanout−advance)³` fresh `q` atoms)
/// stays above the batch floor when auto-dispatch is measured.
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
    let v = |i: u32| Term::Var(nuchase_model::VarId(i));
    let advance_rule = nuchase_model::Tgd::new(
        vec![
            Atom::new(hub, vec![v(0)]),
            Atom::new(hnext, vec![v(0), v(1)]),
        ],
        vec![Atom::new(hub, vec![v(1)])],
    )
    .unwrap();
    let star_rule = nuchase_model::Tgd::new(
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

/// The Prop 4.5 depth family at a ~100k-atom scale (`|D| = n` atoms, the
/// chase adds `n − 1` more), so the timing is far outside noise.
fn depth_family(n: usize) -> (Instance, TgdSet, usize) {
    let p = nuchase_gen::depth_family(n);
    (p.database, p.tgds, 10_000_000)
}

/// Deep chase over hub-skewed data: every atom carries the same hub
/// constant in argument 0 (the multi-tenant / popular-entity shape), so
/// the `(s, hub)` and `(r, hub)` posting lists grow with the chase. The
/// seed engine keys its index lookups on the *first* bound argument —
/// the hub — and degrades quadratically; selectivity-based probe choice
/// keys on the rare argument and stays O(1) per round.
fn hub_skew_chain(bloat: u32) -> (Instance, TgdSet, usize) {
    let mut symbols = SymbolTable::new();
    let r = symbols.pred_unchecked("r", 3);
    let s = symbols.pred_unchecked("s", 2);
    let h = Term::Const(symbols.constant("h"));
    let a = Term::Const(symbols.constant("a"));
    let b = Term::Const(symbols.constant("b"));
    let mut db = Instance::new();
    db.insert(Atom::new(r, vec![h, a, b]));
    db.insert(Atom::new(s, vec![h, b]));
    for i in 0..bloat {
        let d = Term::Const(symbols.constant(&format!("d{i}")));
        db.insert(Atom::new(s, vec![h, d]));
    }
    let v = |i: u32| Term::Var(nuchase_model::VarId(i));
    // r(W,X,Y), s(W,Y) → ∃Z r(W,Y,Z), s(W,Z)
    let tgd = nuchase_model::Tgd::new(
        vec![
            Atom::new(r, vec![v(0), v(1), v(2)]),
            Atom::new(s, vec![v(0), v(2)]),
        ],
        vec![
            Atom::new(r, vec![v(0), v(2), v(3)]),
            Atom::new(s, vec![v(0), v(3)]),
        ],
    )
    .unwrap();
    (db, TgdSet::new(vec![tgd]), 100_000)
}

/// The hub-skew shape widened: `chains` independent chains share the hub
/// constant, so every round advances all of them at once — deltas of
/// `~2·chains` atoms instead of 2. This is the round shape the parallel
/// executor's pool exists for (the single-chain variant spends its life
/// in 2-atom rounds, which no executor can shard); the skewed `(s, 0, h)`
/// posting list still grows with the chase, exercising probe selectivity
/// under parallel enumeration.
fn hub_skew_fanout(chains: u32, bloat: u32) -> (Instance, TgdSet, usize) {
    let mut symbols = SymbolTable::new();
    let r = symbols.pred_unchecked("r", 3);
    let s = symbols.pred_unchecked("s", 2);
    let h = Term::Const(symbols.constant("h"));
    let mut db = Instance::new();
    for i in 0..chains {
        let a = Term::Const(symbols.constant(&format!("a{i}")));
        let b = Term::Const(symbols.constant(&format!("b{i}")));
        db.insert(Atom::new(r, vec![h, a, b]));
        db.insert(Atom::new(s, vec![h, b]));
    }
    for i in 0..bloat {
        let d = Term::Const(symbols.constant(&format!("d{i}")));
        db.insert(Atom::new(s, vec![h, d]));
    }
    let v = |i: u32| Term::Var(nuchase_model::VarId(i));
    // r(W,X,Y), s(W,Y) → ∃Z r(W,Y,Z), s(W,Z)
    let tgd = nuchase_model::Tgd::new(
        vec![
            Atom::new(r, vec![v(0), v(1), v(2)]),
            Atom::new(s, vec![v(0), v(2)]),
        ],
        vec![
            Atom::new(r, vec![v(0), v(2), v(3)]),
            Atom::new(s, vec![v(0), v(3)]),
        ],
    )
    .unwrap();
    (db, TgdSet::new(vec![tgd]), 100_000)
}

/// Best-of-`runs` timing, but stop repeating once a workload has consumed
/// ~10 s of wall clock (the seed engine is quadratic on some workloads;
/// repeating a 50 s run to shave noise is pointless).
fn best_of<T>(runs: usize, mut f: impl FnMut() -> (usize, ChaseStats, T)) -> EngineNumbers {
    let mut best: Option<EngineNumbers> = None;
    let mut spent = 0.0f64;
    for _ in 0..runs {
        let (atoms, stats, _) = f();
        spent += stats.wall_secs;
        let numbers = EngineNumbers::from_stats(atoms, &stats);
        if best
            .as_ref()
            .is_none_or(|b| numbers.wall_secs < b.wall_secs)
        {
            best = Some(numbers);
        }
        if spent > 10.0 {
            break;
        }
    }
    best.expect("runs >= 1")
}

/// Runs every workload through the seed baseline, the current engine
/// with the apply path pinned to the staged pipeline, and the current
/// engine proper (best of `runs` timed runs each) and returns the rows.
/// `quick` shrinks budgets ~10× for the CI chain-workload smoke, which
/// also asserts the phase-timer wall accounting on every measured row.
pub fn run_chase_bench(runs: usize, quick: bool) -> Vec<ChaseBenchRow> {
    let workloads: Vec<(&'static str, (Instance, TgdSet, usize))> = if quick {
        vec![
            ("successor_chain_10k", {
                let (db, tgds, _) = successor_chain();
                (db, tgds, 10_000)
            }),
            ("hub_skew_chain_10k", {
                let (db, tgds, _) = hub_skew_chain(128);
                (db, tgds, 10_000)
            }),
            ("transitive_closure_120", transitive_closure(120)),
            ("star_join_16x6", star_join(4, 4, 6, 3, 20_000)),
            ("depth_family_5k", depth_family(5_000)),
        ]
    } else {
        vec![
            ("successor_chain_100k", successor_chain()),
            ("hub_skew_chain_100k", hub_skew_chain(512)),
            ("transitive_closure_400", transitive_closure(400)),
            ("star_join_512x20", star_join(32, 16, 20, 5, 200_000)),
            ("depth_family_50k", depth_family(50_000)),
        ]
    };
    let mut rows = Vec::new();
    for (name, (db, tgds, budget)) in workloads {
        // The two enumeration legs are interleaved (optimized, per-
        // trigger, optimized, ...) so each pair of samples runs under
        // similar machine state — back-to-back best-of windows drift
        // enough on shared hardware to swamp a 1.5x ratio. The recorded
        // leg numbers stay best-of-N; the `batch_speedup` ratio is the
        // *median over pairs* of the per-pair wall ratio, which a single
        // lucky draw on either leg cannot skew the way a min-over-mins
        // quotient can.
        let mut optimized: Option<EngineNumbers> = None;
        let mut pertrigger: Option<EngineNumbers> = None;
        let mut ratios = Vec::new();
        for _ in 0..runs.max(1) {
            let r = semi_oblivious_chase(&db, &tgds, budget);
            let opt = EngineNumbers::from_stats(r.instance.len(), &r.stats);
            let r = chase(
                &db,
                &tgds,
                &ChaseConfig {
                    budget: ChaseBudget::atoms(budget),
                    batch_enum: BatchEnum::Off,
                    ..Default::default()
                },
            );
            let pt = EngineNumbers::from_stats(r.instance.len(), &r.stats);
            ratios.push(pt.wall_secs / opt.wall_secs.max(1e-12));
            if optimized
                .as_ref()
                .is_none_or(|b| opt.wall_secs < b.wall_secs)
            {
                optimized = Some(opt);
            }
            if pertrigger
                .as_ref()
                .is_none_or(|b| pt.wall_secs < b.wall_secs)
            {
                pertrigger = Some(pt);
            }
        }
        let (optimized, pertrigger) = (optimized.unwrap(), pertrigger.unwrap());
        ratios.sort_by(f64::total_cmp);
        let batch_speedup = ratios[ratios.len() / 2];
        let pipeline = best_of(runs, || {
            let r = chase(
                &db,
                &tgds,
                &ChaseConfig {
                    budget: ChaseBudget::atoms(budget),
                    apply_path: ApplyPath::Pipeline,
                    ..Default::default()
                },
            );
            (r.instance.len(), r.stats.clone(), ())
        });
        let baseline = best_of(runs, || {
            let r = baseline_semi_oblivious_chase(&db, &tgds, budget);
            (r.instance.len(), r.stats.clone(), ())
        });
        assert_eq!(
            baseline.atoms, optimized.atoms,
            "{name}: engines disagree on the result size"
        );
        assert_eq!(
            pipeline.atoms, optimized.atoms,
            "{name}: apply paths disagree on the result size"
        );
        assert_eq!(
            pertrigger.atoms, optimized.atoms,
            "{name}: enumeration paths disagree on the result size"
        );
        assert_eq!(
            pertrigger.triggers_considered, optimized.triggers_considered,
            "{name}: enumeration paths disagree on triggers considered"
        );
        assert_wall_accounted(name, "auto", &optimized);
        assert_wall_accounted(name, "pipeline", &pipeline);
        assert_wall_accounted(name, "pertrigger", &pertrigger);
        let speedup = baseline.wall_secs / optimized.wall_secs.max(1e-12);
        let fused_speedup = pipeline.wall_secs / optimized.wall_secs.max(1e-12);
        // One extra untimed run at Counters for the per-rule table — the
        // timed legs above all ran with telemetry off.
        let rules = {
            let engine = Engine::builder()
                .budget(ChaseBudget::atoms(budget))
                .telemetry(TelemetryLevel::Counters)
                .build();
            let r = engine.chase(&PreparedProgram::compile(tgds.clone()), &db);
            let snap = r.telemetry.expect("counters-level run carries telemetry");
            assert_eq!(
                snap.rules.iter().map(|t| t.considered).sum::<usize>(),
                r.stats.triggers_considered,
                "{name}: per-rule considered does not sum to the total"
            );
            snap.rules
        };
        rows.push(ChaseBenchRow {
            name,
            budget,
            baseline,
            pipeline,
            pertrigger,
            optimized,
            speedup,
            fused_speedup,
            batch_speedup,
            rules,
        });
    }
    rows
}

/// Numbers for one thread count of the parallel scaling curve.
#[derive(Debug, Clone)]
pub struct ThreadNumbers {
    /// Worker count of the run.
    pub threads: usize,
    /// Final instance size (identical across thread counts by design —
    /// asserted).
    pub atoms: usize,
    /// Semi-naive rounds executed (identical across thread counts).
    pub rounds: usize,
    /// Triggers enumerated per round.
    pub triggers_per_round: f64,
    /// Rounds applied through the fused micro-round path.
    pub fused_rounds: usize,
    /// Best-of-N wall time, seconds.
    pub wall_secs: f64,
    /// Triggers considered per second.
    pub triggers_per_sec: f64,
    /// Wall time of the (sharded) enumerate phase.
    pub enumerate_secs: f64,
    /// Wall time of the dedup merge.
    pub dedup_secs: f64,
    /// Wall time of the apply step (plan + resolve + commit, or fused).
    pub apply_secs: f64,
    /// Wall time of the resolve stage (shards across workers).
    pub resolve_secs: f64,
    /// Wall time of the commit stage (the remaining serial section;
    /// fused micro-rounds land entirely here).
    pub commit_secs: f64,
    /// Wall time of worker release and pool teardown (coordinator-serial
    /// time with no per-phase analogue; 0 for 1-thread runs, which skip
    /// the pool).
    pub pool_secs: f64,
}

/// The scaling curve of one workload under the parallel executor.
#[derive(Debug, Clone)]
pub struct ParallelBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Atom budget of the runs.
    pub budget: usize,
    /// One entry per measured thread count, ascending.
    pub curve: Vec<ThreadNumbers>,
    /// `wall(1 thread) / wall(4 threads)` — the headline scaling number.
    pub speedup_4t: f64,
}

/// Thread counts of the scaling curve.
pub const PARALLEL_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs the parallel scaling curve (best of `runs` per thread count) on
/// the two workloads whose enumerate phase dominates: hub-skew and the
/// depth family. `quick` shrinks the budgets ~10× for CI smoke runs.
pub fn run_parallel_bench(runs: usize, quick: bool) -> Vec<ParallelBenchRow> {
    let workloads: Vec<(&'static str, (Instance, TgdSet, usize))> = if quick {
        vec![
            ("hub_skew_chain_10k", {
                let (db, tgds, _) = hub_skew_chain(128);
                (db, tgds, 10_000)
            }),
            ("hub_skew_fanout_10k", {
                let (db, tgds, _) = hub_skew_fanout(1024, 128);
                (db, tgds, 10_000)
            }),
            ("depth_family_5k", depth_family(5_000)),
        ]
    } else {
        vec![
            ("hub_skew_chain_100k", hub_skew_chain(512)),
            ("hub_skew_fanout_100k", hub_skew_fanout(2048, 512)),
            ("transitive_closure_400", transitive_closure(400)),
            ("depth_family_50k", depth_family(50_000)),
        ]
    };
    let mut rows = Vec::new();
    for (name, (db, tgds, budget)) in workloads {
        let mut curve = Vec::new();
        for threads in PARALLEL_THREADS {
            let numbers = best_of(runs, || {
                let r = chase(
                    &db,
                    &tgds,
                    &ChaseConfig {
                        budget: ChaseBudget::atoms(budget),
                        threads,
                        ..Default::default()
                    },
                );
                (r.instance.len(), r.stats.clone(), ())
            });
            // The timers must account for the wall on every curve point
            // (the quick CI smoke is the tripwire for an unaccounted
            // per-round cost creeping back in).
            assert_wall_accounted(name, &format!("{threads} threads"), &numbers);
            curve.push(ThreadNumbers {
                threads,
                atoms: numbers.atoms,
                rounds: numbers.rounds,
                triggers_per_round: numbers.triggers_per_round,
                fused_rounds: numbers.fused_rounds,
                wall_secs: numbers.wall_secs,
                triggers_per_sec: numbers.triggers_per_sec,
                enumerate_secs: numbers.enumerate_secs,
                dedup_secs: numbers.dedup_secs,
                apply_secs: numbers.apply_secs,
                resolve_secs: numbers.resolve_secs,
                commit_secs: numbers.commit_secs,
                pool_secs: numbers.pool_secs,
            });
        }
        assert!(
            curve.windows(2).all(|w| w[0].atoms == w[1].atoms),
            "{name}: thread counts disagree on the result size"
        );
        assert!(
            curve.windows(2).all(|w| w[0].rounds == w[1].rounds),
            "{name}: thread counts disagree on the round count"
        );
        // Phase accounting must stay consistent: resolve + commit are
        // nested sub-spans partitioning the apply step, so their sum
        // tracks apply_secs up to timer overhead. The quick CI smoke
        // exists to catch a stage that stops being timed (or gets
        // double-counted) after a refactor.
        for n in &curve {
            let sum = n.resolve_secs + n.commit_secs;
            assert!(
                (sum - n.apply_secs).abs() <= 0.02 + 0.05 * n.apply_secs,
                "{name} @ {} threads: resolve {:.4}s + commit {:.4}s != apply {:.4}s",
                n.threads,
                n.resolve_secs,
                n.commit_secs,
                n.apply_secs
            );
        }
        let wall_at = |t: usize| {
            curve
                .iter()
                .find(|n| n.threads == t)
                .map(|n| n.wall_secs)
                .unwrap_or(f64::NAN)
        };
        let speedup_4t = wall_at(1) / wall_at(4).max(1e-12);
        rows.push(ParallelBenchRow {
            name,
            budget,
            curve,
            speedup_4t,
        });
    }
    rows
}

fn thread_json(n: &ThreadNumbers) -> String {
    format!(
        "{{\"threads\": {}, \"atoms\": {}, \"rounds\": {}, \
         \"triggers_per_round\": {:.2}, \"fused_rounds\": {}, \
         \"wall_secs\": {:.6}, \
         \"triggers_per_sec\": {:.0}, \"enumerate_secs\": {:.6}, \
         \"dedup_secs\": {:.6}, \"apply_secs\": {:.6}, \
         \"resolve_secs\": {:.6}, \"commit_secs\": {:.6}, \
         \"pool_secs\": {:.6}}}",
        n.threads,
        n.atoms,
        n.rounds,
        n.triggers_per_round,
        n.fused_rounds,
        n.wall_secs,
        n.triggers_per_sec,
        n.enumerate_secs,
        n.dedup_secs,
        n.apply_secs,
        n.resolve_secs,
        n.commit_secs,
        n.pool_secs
    )
}

/// Renders the rows as the `BENCH_parallel.json` document.
pub fn parallel_bench_json(rows: &[ParallelBenchRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo run --release -p nuchase-bench --bin harness -- --bench-parallel\","
    );
    let _ = writeln!(
        out,
        "  \"engine\": \"parallel executor (sharded enumeration, deterministic apply); \
         1-thread curve point is the parallel executor with one worker\","
    );
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        nuchase_engine::auto_threads()
    );
    let _ = writeln!(
        out,
        "  \"note\": \"on a single-core host (host_parallelism 1) the per-thread-count \
         differences, including speedup_4_threads, are pure timing noise (~±40%); only \
         curves regenerated on a multicore host measure scaling — see EXPERIMENTS.md\","
    );
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", row.name);
        let _ = writeln!(out, "      \"budget_atoms\": {},", row.budget);
        let _ = writeln!(out, "      \"curve\": [");
        for (j, n) in row.curve.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {}{}",
                thread_json(n),
                if j + 1 < row.curve.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"speedup_4_threads\": {:.2}", row.speedup_4t);
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a human-readable table of the scaling rows.
pub fn parallel_bench_table(rows: &[ParallelBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>8} {:>8} {:>12} {:>14} {:>11} {:>9} {:>9} {:>9}",
        "workload",
        "threads",
        "rounds",
        "trig/rnd",
        "wall",
        "triggers/s",
        "enumerate",
        "dedup",
        "resolve",
        "commit"
    );
    for r in rows {
        for n in &r.curve {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>8} {:>8.1} {:>10.3} s {:>14.0} {:>9.3} s {:>7.3} s {:>7.3} s {:>7.3} s",
                r.name,
                n.threads,
                n.rounds,
                n.triggers_per_round,
                n.wall_secs,
                n.triggers_per_sec,
                n.enumerate_secs,
                n.dedup_secs,
                n.resolve_secs,
                n.commit_secs
            );
        }
        let _ = writeln!(out, "{:<24} 4-thread speedup: {:.2}×", "", r.speedup_4t);
    }
    out
}

fn engine_json(n: &EngineNumbers) -> String {
    format!(
        "{{\"atoms\": {}, \"triggers_considered\": {}, \"rounds\": {}, \
         \"triggers_per_round\": {:.2}, \"fused_rounds\": {}, \
         \"wall_secs\": {:.6}, \
         \"atoms_per_sec\": {:.0}, \"triggers_per_sec\": {:.0}, \
         \"enumerate_secs\": {:.6}, \"probe_secs\": {:.6}, \
         \"emit_secs\": {:.6}, \"peak_instance_bytes\": {}, \
         \"peak_null_bytes\": {}, \"instance_table_load\": {:.3}, \
         \"index_spill_count\": {}, \"batched_probes\": {}, \
         \"prefetch_queue_depth\": {}}}",
        n.atoms,
        n.triggers_considered,
        n.rounds,
        n.triggers_per_round,
        n.fused_rounds,
        n.wall_secs,
        n.atoms_per_sec,
        n.triggers_per_sec,
        n.enumerate_secs,
        n.probe_secs,
        n.emit_secs,
        n.peak_instance_bytes,
        n.peak_null_bytes,
        n.instance_table_load,
        n.index_spill_count,
        n.batched_probes,
        n.prefetch_queue_depth
    )
}

/// Renders the rows as the `BENCH_chase.json` document. `huge` holds the
/// beyond-RAM sweep rows ([`run_huge_bench`]; pass `&[]` to omit the
/// section's entries).
pub fn chase_bench_json(rows: &[ChaseBenchRow], huge: &[HugeBenchRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo run --release -p nuchase-bench --bin harness -- --bench-chase\","
    );
    let _ = writeln!(
        out,
        "  \"baseline\": \"seed engine (pattern clones, trail allocs, boxed dedup keys)\","
    );
    let _ = writeln!(
        out,
        "  \"pipeline\": \"current engine, apply path forced to the staged pipeline (pre-fused behaviour, same run)\","
    );
    let _ = writeln!(
        out,
        "  \"pertrigger\": \"current engine, wide-round batch enumeration forced off (per-trigger search, same run)\","
    );
    let _ = writeln!(
        out,
        "  \"optimized\": \"current engine (compiled plans, arena instance, fused micro-rounds, columnar wide-round batches)\","
    );
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", row.name);
        let _ = writeln!(out, "      \"budget_atoms\": {},", row.budget);
        let _ = writeln!(out, "      \"baseline\": {},", engine_json(&row.baseline));
        let _ = writeln!(out, "      \"pipeline\": {},", engine_json(&row.pipeline));
        let _ = writeln!(
            out,
            "      \"pertrigger\": {},",
            engine_json(&row.pertrigger)
        );
        let _ = writeln!(out, "      \"optimized\": {},", engine_json(&row.optimized));
        let _ = writeln!(out, "      \"rules\": [");
        for (j, t) in row.rules.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"rule\": {}, \"considered\": {}, \"deduped\": {}, \
                 \"fired\": {}, \"atoms\": {}, \"nulls\": {}}}{}",
                j,
                t.considered,
                t.deduped,
                t.fired,
                t.atoms,
                t.nulls,
                if j + 1 < row.rules.len() { "," } else { "" }
            );
        }
        let _ = writeln!(out, "      ],");
        let _ = writeln!(out, "      \"speedup\": {:.2},", row.speedup);
        let _ = writeln!(out, "      \"fused_speedup\": {:.2},", row.fused_speedup);
        let _ = writeln!(out, "      \"batch_speedup\": {:.2}", row.batch_speedup);
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"huge_workloads\": [");
    for (i, row) in huge.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", row.name);
        let _ = writeln!(out, "      \"budget_atoms\": {},", row.budget);
        let _ = writeln!(out, "      \"ceiling_bytes\": {},", row.ceiling_bytes);
        let _ = writeln!(out, "      \"spill_file_bytes\": {},", row.spill_file_bytes);
        let _ = writeln!(out, "      \"optimized\": {}", engine_json(&row.optimized));
        let _ = writeln!(out, "    }}{}", if i + 1 < huge.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a human-readable table of the rows.
pub fn chase_bench_table(rows: &[ChaseBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>9} {:>8} {:>12} {:>12} {:>12} {:>12} {:>14} {:>9} {:>7} {:>7}",
        "workload",
        "atoms",
        "rounds",
        "base wall",
        "pipe wall",
        "trig wall",
        "opt wall",
        "opt triggers/s",
        "speedup",
        "fused",
        "batch"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>8} {:>10.3} s {:>10.3} s {:>10.3} s {:>10.3} s {:>14.0} {:>8.1}× {:>6.2}× {:>6.2}×",
            r.name,
            r.optimized.atoms,
            r.optimized.rounds,
            r.baseline.wall_secs,
            r.pipeline.wall_secs,
            r.pertrigger.wall_secs,
            r.optimized.wall_secs,
            r.optimized.triggers_per_sec,
            r.speedup,
            r.fused_speedup,
            r.batch_speedup
        );
    }
    out
}

/// One row of the beyond-RAM workload sweep (`--bench-huge[-quick]`): a
/// chain/star mix at ≥10× the standard instance sizes, chased with the
/// file-backed arena spill engaged so the instance term pool and posting
/// spills live in `mmap`ped chunks, and the peak *heap* footprint
/// asserted against a configured ceiling — the bounded-RSS contract of
/// the chunked-instance tier.
#[derive(Debug, Clone)]
pub struct HugeBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Atom budget of the run.
    pub budget: usize,
    /// The heap ceiling the run was asserted under, bytes
    /// (`NUCHASE_HUGE_CEILING_BYTES` overrides the default).
    pub ceiling_bytes: usize,
    /// Bytes the instance held in file-backed (mmap) chunks at the end
    /// of the run — what the spill tier kept off the heap.
    pub spill_file_bytes: usize,
    /// Current-engine numbers (one timed run; huge workloads are not
    /// best-of-N).
    pub optimized: EngineNumbers,
}

/// Runs the huge chain/star workloads with the chunk spill directory
/// engaged (a temp dir, unless `NUCHASE_INSTANCE_SPILL_DIR` is already
/// routed somewhere) and asserts every run completes with
/// `peak_instance_bytes` under the ceiling. `quick` shrinks budgets for
/// the CI smoke; the full sweep runs ≥10× the standard `--bench-chase`
/// instance sizes.
pub fn run_huge_bench(quick: bool) -> Vec<HugeBenchRow> {
    let workloads: Vec<(&'static str, (Instance, TgdSet, usize))> = if quick {
        vec![
            ("successor_chain_200k", {
                let (db, tgds, _) = successor_chain();
                (db, tgds, 200_000)
            }),
            ("star_join_huge_smoke", star_join(16, 24, 18, 6, 200_000)),
        ]
    } else {
        vec![
            ("successor_chain_1m", {
                let (db, tgds, _) = successor_chain();
                (db, tgds, 1_000_000)
            }),
            ("star_join_huge", star_join(64, 48, 32, 8, 2_000_000)),
        ]
    };
    // The ceiling is a regression tripwire on heap growth, not a tight
    // fit: the instance index (hash table, posting lanes) stays on the
    // heap by design; the term pool and posting spill arenas must not.
    let default_ceiling: usize = if quick { 256 << 20 } else { 1 << 30 };
    let ceiling = std::env::var("NUCHASE_HUGE_CEILING_BYTES")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default_ceiling);
    // Engage the file-backed chunk tier for the sweep unless the caller
    // already routed it; chunks unlink their backing files at map time,
    // so the directory stays empty and is removed best-effort after.
    let spill_was_set = std::env::var_os("NUCHASE_INSTANCE_SPILL_DIR").is_some();
    let tmp_spill = std::env::temp_dir().join("nuchase_huge_spill");
    if !spill_was_set {
        let _ = std::fs::create_dir_all(&tmp_spill);
        std::env::set_var("NUCHASE_INSTANCE_SPILL_DIR", &tmp_spill);
    }
    // Arena *sizing* caches its spill decision at the first arena
    // creation (long past, by now), so ask for spill-tier chunk lengths
    // explicitly: the sweep wants few, large mappings.
    nuchase_model::chunk::set_spill_chunking(Some(true));
    let mut rows = Vec::new();
    for (name, (db, tgds, budget)) in workloads {
        let r = semi_oblivious_chase(&db, &tgds, budget);
        let optimized = EngineNumbers::from_stats(r.instance.len(), &r.stats);
        assert!(
            optimized.atoms >= budget / 2,
            "{name}: expected a ≥{}-atom instance, got {}",
            budget / 2,
            optimized.atoms
        );
        assert!(
            optimized.peak_instance_bytes <= ceiling,
            "{name}: peak instance heap {} B exceeds the {} B ceiling \
             (NUCHASE_HUGE_CEILING_BYTES overrides)",
            optimized.peak_instance_bytes,
            ceiling
        );
        rows.push(HugeBenchRow {
            name,
            budget,
            ceiling_bytes: ceiling,
            spill_file_bytes: r.instance.file_bytes(),
            optimized,
        });
    }
    nuchase_model::chunk::set_spill_chunking(None);
    if !spill_was_set {
        std::env::remove_var("NUCHASE_INSTANCE_SPILL_DIR");
        let _ = std::fs::remove_dir(&tmp_spill);
    }
    rows
}

/// Renders a human-readable table of the huge-workload rows.
pub fn huge_bench_table(rows: &[HugeBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>8} {:>12} {:>14} {:>14} {:>14}",
        "workload", "atoms", "rounds", "wall", "heap peak", "file spill", "heap ceiling"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>8} {:>10.3} s {:>12} B {:>12} B {:>12} B",
            r.name,
            r.optimized.atoms,
            r.optimized.rounds,
            r.optimized.wall_secs,
            r.optimized.peak_instance_bytes,
            r.spill_file_bytes,
            r.ceiling_bytes
        );
    }
    out
}

/// One row of the memory-locality comparison: the same workload with
/// the probe tables in the pre-bucketization linear layout and in the
/// cache-line-bucketized layout, interleaved in one process.
#[derive(Debug, Clone)]
pub struct LocalityBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Atom budget of each run.
    pub budget: usize,
    /// Best-of numbers with the linear (pre-locality-tier) layout.
    pub linear: EngineNumbers,
    /// Best-of numbers with the bucketized layout.
    pub bucketized: EngineNumbers,
    /// Median over interleaved pairs of (linear wall / bucketized
    /// wall) — the defensible in-run layout speedup.
    pub layout_speedup: f64,
}

/// Interleaves linear-layout and bucketized-layout runs of the probe-
/// bound workloads in one process (the layout override is the same
/// process-global knob `NUCHASE_FORCE_BUCKET_LAYOUT` resolves into, so
/// a pair of runs shares machine state) and reports the median per-pair
/// wall ratio. Linear reverts the whole tier (layout, partition
/// binning, the fused path's in-round and cross-round prefetch), so
/// the ratio is current-vs-pre-tier in one run.
///
/// Each leg rebuilds its workload *after* flipping the layout: the
/// engine chases a clone of the database, and a `TagTable`'s layout is
/// fixed at creation and survives both `Clone` and growth, so a
/// database built once up-front would pin the instance-dedup table —
/// the largest table in the run — to whatever layout was live at
/// build time and silently contaminate the "linear" leg.
///
/// Honest expectations: the tier targets instances that outgrow the
/// LLC, where the chain's random probes hit DRAM and the bucketized
/// one-line probe plus the batched/cross-round prefetches overlap the
/// misses. The benchmark container exposes a 260 MiB L3, which keeps
/// even the 3 M-atom row (~0.2 GB of tables + pools) largely
/// cache-resident; there the commit phase is bandwidth-bound on
/// streaming arena appends — latency hiding has nothing to buy back —
/// and interleaved pairs measure parity (~0.95–1.05×). The full sweep
/// therefore asserts a ≥0.75× no-regression guard on the beyond-L3
/// row (the tier must never lose) and reports the measured ratio for
/// the record; EXPERIMENTS.md carries the study and the
/// smaller-LLC-hardware follow-up.
pub fn run_locality_bench(runs: usize, quick: bool) -> Vec<LocalityBenchRow> {
    use nuchase_model::hash::{set_table_layout, TableLayout};
    type Build = fn() -> (Instance, TgdSet, usize);
    type Row = (&'static str, Build, Option<usize>, Option<f64>, usize);
    let workloads: Vec<Row> = if quick {
        vec![(
            "successor_chain_20k",
            successor_chain,
            Some(20_000),
            None,
            runs,
        )]
    } else {
        vec![
            ("successor_chain_100k", successor_chain, None, None, runs),
            (
                "successor_chain_3m",
                successor_chain,
                Some(3_000_000),
                Some(0.75),
                3.min(runs),
            ),
            (
                "hub_skew_chain_100k",
                (|| hub_skew_chain(512)) as Build,
                Some(100_000),
                None,
                runs,
            ),
        ]
    };
    let mut rows = Vec::new();
    for (name, build, budget_override, bar, pairs) in workloads {
        let mut linear: Option<EngineNumbers> = None;
        let mut bucketized: Option<EngineNumbers> = None;
        let mut budget = 0;
        let mut ratios = Vec::new();
        for _ in 0..pairs.max(1) {
            set_table_layout(TableLayout::Linear);
            let (db, tgds, default_budget) = build();
            budget = budget_override.unwrap_or(default_budget);
            let r = semi_oblivious_chase(&db, &tgds, budget);
            let lin = EngineNumbers::from_stats(r.instance.len(), &r.stats);
            set_table_layout(TableLayout::Bucketized);
            let (db, tgds, _) = build();
            let r = semi_oblivious_chase(&db, &tgds, budget);
            let buck = EngineNumbers::from_stats(r.instance.len(), &r.stats);
            assert_eq!(
                lin.atoms, buck.atoms,
                "{name}: table layouts disagree on the result size"
            );
            ratios.push(lin.wall_secs / buck.wall_secs.max(1e-12));
            if linear.as_ref().is_none_or(|b| lin.wall_secs < b.wall_secs) {
                linear = Some(lin);
            }
            if bucketized
                .as_ref()
                .is_none_or(|b| buck.wall_secs < b.wall_secs)
            {
                bucketized = Some(buck);
            }
        }
        // Leave the process on the default layout for whatever runs next.
        set_table_layout(TableLayout::Bucketized);
        ratios.sort_by(f64::total_cmp);
        let layout_speedup = ratios[ratios.len() / 2];
        if let Some(bar) = bar {
            assert!(
                layout_speedup >= bar,
                "{name}: bucketized layout speedup {layout_speedup:.2}× \
                 below the {bar:.2}× locality-tier no-regression bar"
            );
        }
        rows.push(LocalityBenchRow {
            name,
            budget,
            linear: linear.unwrap(),
            bucketized: bucketized.unwrap(),
            layout_speedup,
        });
    }
    rows
}

/// Renders a human-readable table of the locality-comparison rows.
pub fn locality_bench_table(rows: &[LocalityBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>10} {:>14} {:>14} {:>10}",
        "workload", "atoms", "linear", "bucketized", "speedup"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>12.3} s {:>12.3} s {:>9.2}x",
            r.name,
            r.bucketized.atoms,
            r.linear.wall_secs,
            r.bucketized.wall_secs,
            r.layout_speedup
        );
    }
    out
}

/// One row of the wide-round enumeration smoke: the same workload with
/// the columnar batch path forced off and forced on.
#[derive(Debug, Clone)]
pub struct WideBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Atom budget of the runs.
    pub budget: usize,
    /// Numbers with `BatchEnum::Off` (per-trigger backtracking search).
    pub pertrigger: EngineNumbers,
    /// Numbers with `BatchEnum::On` (columnar batch on every non-fused
    /// round, floor ignored).
    pub batch: EngineNumbers,
    /// Median over interleaved run pairs of the per-pair
    /// `pertrigger.wall / batch.wall` ratio (see
    /// [`ChaseBenchRow::batch_speedup`] for the estimator rationale).
    pub batch_speedup: f64,
}

/// The wide-round enumeration smoke: the two batch-shaped workloads
/// (transitive closure, star join) with the columnar path forced off
/// and on. Asserts byte-identical results (`indexed_eq`), identical
/// trigger counters, and the phase-timer wall accounting — including
/// the probe/emit partition of the enumerate span — on every leg; the
/// quick variant is the CI tripwire for the batch path drifting from
/// the per-trigger spec.
pub fn run_wide_bench(runs: usize, quick: bool) -> Vec<WideBenchRow> {
    let workloads: Vec<(&'static str, (Instance, TgdSet, usize))> = if quick {
        vec![
            ("transitive_closure_120", transitive_closure(120)),
            ("star_join_16x6", star_join(4, 4, 6, 3, 20_000)),
        ]
    } else {
        vec![
            ("transitive_closure_400", transitive_closure(400)),
            ("star_join_512x20", star_join(32, 16, 20, 5, 200_000)),
        ]
    };
    let mut rows = Vec::new();
    for (name, (db, tgds, budget)) in workloads {
        let cfg = |batch_enum| ChaseConfig {
            budget: ChaseBudget::atoms(budget),
            batch_enum,
            ..Default::default()
        };
        // Identity pre-pass: the two enumeration paths must agree
        // byte-for-byte before either is worth timing.
        let off = chase(&db, &tgds, &cfg(BatchEnum::Off));
        let on = chase(&db, &tgds, &cfg(BatchEnum::On));
        assert_eq!(off.outcome, on.outcome, "{name}: outcomes diverge");
        assert!(
            off.instance.indexed_eq(&on.instance),
            "{name}: batch enumeration deviates from per-trigger"
        );
        assert_eq!(
            off.stats.triggers_considered, on.stats.triggers_considered,
            "{name}: triggers considered diverge"
        );
        assert_eq!(
            off.stats.triggers_fired, on.stats.triggers_fired,
            "{name}: triggers fired diverge"
        );
        // Interleave the two legs' samples (per-trigger, batch,
        // per-trigger, ...) so each best-of pair sees the same machine
        // state — back-to-back blocks would let a mid-measurement
        // frequency or cache-pressure shift masquerade as a speedup.
        let mut pertrigger: Option<EngineNumbers> = None;
        let mut batch: Option<EngineNumbers> = None;
        let mut ratios = Vec::new();
        for _ in 0..runs.max(1) {
            let r = chase(&db, &tgds, &cfg(BatchEnum::Off));
            let pt = EngineNumbers::from_stats(r.instance.len(), &r.stats);
            let r = chase(&db, &tgds, &cfg(BatchEnum::On));
            let bt = EngineNumbers::from_stats(r.instance.len(), &r.stats);
            ratios.push(pt.wall_secs / bt.wall_secs.max(1e-12));
            if pertrigger
                .as_ref()
                .is_none_or(|b| pt.wall_secs < b.wall_secs)
            {
                pertrigger = Some(pt);
            }
            if batch.as_ref().is_none_or(|b| bt.wall_secs < b.wall_secs) {
                batch = Some(bt);
            }
        }
        let (pertrigger, batch) = (pertrigger.unwrap(), batch.unwrap());
        assert_wall_accounted(name, "pertrigger", &pertrigger);
        assert_wall_accounted(name, "batch", &batch);
        ratios.sort_by(f64::total_cmp);
        let batch_speedup = ratios[ratios.len() / 2];
        rows.push(WideBenchRow {
            name,
            budget,
            pertrigger,
            batch,
            batch_speedup,
        });
    }
    rows
}

/// Renders a human-readable table of the wide-round smoke rows.
pub fn wide_bench_table(rows: &[WideBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>9} {:>12} {:>12} {:>11} {:>9} {:>9} {:>7}",
        "workload", "atoms", "trig wall", "batch wall", "batch probe", "emit", "trig/s", "batch"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<24} {:>9} {:>10.3} s {:>10.3} s {:>9.3} s {:>7.3} s {:>9.0} {:>6.2}×",
            r.name,
            r.batch.atoms,
            r.pertrigger.wall_secs,
            r.batch.wall_secs,
            r.batch.probe_secs,
            r.batch.emit_secs,
            r.batch.triggers_per_sec,
            r.batch_speedup
        );
    }
    out
}

/// One serving-shaped workload for the prepared-program benchmark: a
/// fixed ontology Σ and many small, disjoint tenant databases — the
/// "millions of small requests against one program" regime the
/// [`PreparedProgram`]/[`Engine`] API exists for.
struct PreparedWorkload {
    name: &'static str,
    /// The uncompiled rule template (body, head) — what the cold mode
    /// recompiles per chase, as a per-request service would.
    rules: Vec<(Vec<Atom>, Vec<Atom>)>,
    tgds: TgdSet,
    databases: Vec<Instance>,
}

fn rule_template(tgds: &TgdSet) -> Vec<(Vec<Atom>, Vec<Atom>)> {
    tgds.iter()
        .map(|(_, t)| (t.body().to_vec(), t.head().to_vec()))
        .collect()
}

/// Builds the two workloads: the OBDA ontology (9 rules, SL) and the
/// data-exchange mapping (5 rules, weakly acyclic), each over `tenants`
/// disjoint databases of roughly `facts` seed facts.
fn prepared_workloads(tenants: usize, facts: usize) -> Vec<PreparedWorkload> {
    let mut out = Vec::new();
    {
        let mut symbols = SymbolTable::new();
        let tgds = nuchase_gen::scenarios::obda_ontology(&mut symbols);
        let mut databases = Vec::new();
        for t in 0..tenants {
            let mut text = String::new();
            let depts = facts / 4 + 1;
            for i in 0..facts {
                text.push_str(&format!("employee(t{t}e{i}).\n"));
                text.push_str(&format!("worksfor(t{t}e{i}, t{t}d{}).\n", i % depts));
                if i % 3 == 0 {
                    text.push_str(&format!("assignedto(t{t}e{i}, t{t}p{}).\n", i % 2));
                }
            }
            databases.push(parse_database(&text, &mut symbols).expect("tenant db"));
        }
        out.push(PreparedWorkload {
            name: "obda_tenants",
            rules: rule_template(&tgds),
            tgds,
            databases,
        });
    }
    {
        let mut symbols = SymbolTable::new();
        let tgds = nuchase_gen::scenarios::exchange_mapping(&mut symbols);
        let mut databases = Vec::new();
        for t in 0..tenants {
            let mut text = String::new();
            for i in 0..facts {
                text.push_str(&format!("s_emp(t{t}n{i}, t{t}d{}).\n", i % (facts / 3 + 1)));
                if i % 2 == 0 {
                    text.push_str(&format!("s_proj(t{t}n{i}, t{t}p{}).\n", i % 3));
                }
            }
            databases.push(parse_database(&text, &mut symbols).expect("tenant source"));
        }
        out.push(PreparedWorkload {
            name: "exchange_tenants",
            rules: rule_template(&tgds),
            tgds,
            databases,
        });
    }
    out
}

/// Timing of one reuse mode over the whole tenant sweep.
#[derive(Debug, Clone)]
pub struct ModeNumbers {
    /// Best-of-N wall time for chasing every tenant database, seconds.
    pub total_secs: f64,
    /// Derived: microseconds per chase.
    pub per_chase_us: f64,
    /// Largest single-chase instance heap footprint seen across the
    /// sweep, bytes (identical across modes up to buffer recycling).
    pub peak_instance_bytes: usize,
    /// Batched/prefetched table probes summed across one sweep
    /// (identical across modes — the probe sequence is deterministic).
    pub batched_probes: usize,
}

/// One workload's cold/prepared/warm comparison.
#[derive(Debug, Clone)]
pub struct PreparedBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Number of tenant databases chased per mode.
    pub databases: usize,
    /// Total atoms across all tenant chases (identical in every mode —
    /// asserted).
    pub chase_atoms: usize,
    /// Compile Σ + build an engine per chase — the no-reuse baseline a
    /// naive per-request service pays.
    pub cold: ModeNumbers,
    /// One [`PreparedProgram`], but a fresh [`Engine`] (fresh buffers,
    /// fresh pool) per chase — program reuse only.
    pub prepared: ModeNumbers,
    /// One prepared program AND one engine across all chases — program,
    /// buffer, and pool reuse; the serving configuration.
    pub warm: ModeNumbers,
    /// `cold.total_secs / warm.total_secs` — the headline amortization.
    pub amortization: f64,
    /// `cold.total_secs / prepared.total_secs` — program reuse alone.
    pub program_gain: f64,
}

/// One timed pass over every tenant database in one mode.
struct SweepNumbers {
    secs: f64,
    atoms: usize,
    peak: usize,
    probes: usize,
}

fn sweep(
    dbs: &[Instance],
    mut chase_one: impl FnMut(&Instance) -> (usize, usize, usize),
) -> SweepNumbers {
    let t = Instant::now();
    let mut atoms = 0usize;
    let mut peak = 0usize;
    let mut probes = 0usize;
    for db in dbs {
        let (a, p, bp) = chase_one(db);
        atoms += a;
        probes += bp;
        peak = peak.max(p);
    }
    SweepNumbers {
        secs: t.elapsed().as_secs_f64(),
        atoms,
        peak,
        probes,
    }
}

/// Folds best-of-N sweeps of one mode into its [`ModeNumbers`].
#[derive(Default)]
struct ModeAccum {
    best: f64,
    atoms: usize,
    peak: usize,
    probes: usize,
}

impl ModeAccum {
    fn new() -> Self {
        ModeAccum {
            best: f64::INFINITY,
            ..Default::default()
        }
    }

    fn fold(&mut self, s: &SweepNumbers) {
        self.best = self.best.min(s.secs);
        self.atoms = s.atoms;
        self.peak = self.peak.max(s.peak);
        self.probes = s.probes;
    }

    fn numbers(&self, dbs: usize) -> ModeNumbers {
        ModeNumbers {
            total_secs: self.best,
            per_chase_us: self.best * 1e6 / dbs.max(1) as f64,
            peak_instance_bytes: self.peak,
            batched_probes: self.probes,
        }
    }
}

fn median(ratios: &mut [f64]) -> f64 {
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Runs the many-small-chases benchmark: N tenant databases × one Σ,
/// measuring per-chase wall with and without program/engine reuse.
/// `quick` shrinks the tenant count ~8× for the CI smoke. Every mode
/// must produce identical chases (asserted on the summed atom counts);
/// the full (non-quick) run also asserts the ≥1.3× amortization bar
/// the prepared API exists for.
///
/// The three modes run **interleaved within each iteration** (one cold
/// sweep, then one prepared, then one warm, `runs` times over), and the
/// headline ratios are the *median of per-iteration ratios* — the same
/// drift-cancelling estimator as [`ChaseBenchRow::batch_speedup`].
/// The earlier shape (consecutive per-mode best-of-N blocks) let slow
/// machine-state drift on a shared container land entirely on one mode:
/// it once measured `prepared` 1.33× slower than `cold`, which is
/// implausible — cold does strictly more work (it recompiles Σ and
/// rebuilds the engine per chase on top of the identical chase).
pub fn run_prepared_bench(runs: usize, quick: bool) -> Vec<PreparedBenchRow> {
    let tenants = if quick { 64 } else { 512 };
    let facts = 6;
    let config = ChaseConfig::default();
    let mut rows = Vec::new();
    for w in prepared_workloads(tenants, facts) {
        let shared_program = PreparedProgram::compile(w.tgds.clone());
        let shared_engine = Engine::from_config(&config);
        let mut cold_acc = ModeAccum::new();
        let mut prepared_acc = ModeAccum::new();
        let mut warm_acc = ModeAccum::new();
        let mut amort_ratios = Vec::new();
        let mut gain_ratios = Vec::new();
        for _ in 0..runs {
            let cold = sweep(&w.databases, |db| {
                let tgds = TgdSet::new(
                    w.rules
                        .iter()
                        .map(|(b, h)| Tgd::new(b.clone(), h.clone()).expect("template rule"))
                        .collect(),
                );
                let program = PreparedProgram::compile(tgds);
                let engine = Engine::from_config(&config);
                let r = engine.chase(&program, db);
                (
                    r.instance.len(),
                    r.stats.peak_instance_bytes,
                    r.stats.batched_probes,
                )
            });
            let prepared = sweep(&w.databases, |db| {
                let engine = Engine::from_config(&config);
                let r = engine.chase(&shared_program, db);
                (
                    r.instance.len(),
                    r.stats.peak_instance_bytes,
                    r.stats.batched_probes,
                )
            });
            let warm = sweep(&w.databases, |db| {
                let r = shared_engine.chase(&shared_program, db);
                (
                    r.instance.len(),
                    r.stats.peak_instance_bytes,
                    r.stats.batched_probes,
                )
            });
            assert_eq!(cold.atoms, warm.atoms, "{}: modes disagree", w.name);
            assert_eq!(prepared.atoms, warm.atoms, "{}: modes disagree", w.name);
            amort_ratios.push(cold.secs / warm.secs.max(1e-12));
            gain_ratios.push(cold.secs / prepared.secs.max(1e-12));
            cold_acc.fold(&cold);
            prepared_acc.fold(&prepared);
            warm_acc.fold(&warm);
        }
        let amortization = median(&mut amort_ratios);
        let program_gain = median(&mut gain_ratios);
        if !quick {
            assert!(
                amortization >= 1.3,
                "{}: program+engine reuse amortization {amortization:.2}x is below the 1.3x bar",
                w.name
            );
        }
        rows.push(PreparedBenchRow {
            name: w.name,
            databases: tenants,
            chase_atoms: warm_acc.atoms,
            cold: cold_acc.numbers(tenants),
            prepared: prepared_acc.numbers(tenants),
            warm: warm_acc.numbers(tenants),
            amortization,
            program_gain,
        });
    }
    rows
}

fn mode_json(n: &ModeNumbers) -> String {
    format!(
        "{{\"total_secs\": {:.6}, \"per_chase_us\": {:.2}, \"peak_instance_bytes\": {}, \
         \"batched_probes\": {}}}",
        n.total_secs, n.per_chase_us, n.peak_instance_bytes, n.batched_probes
    )
}

/// Renders the rows as the `BENCH_prepared.json` document.
pub fn prepared_bench_json(rows: &[PreparedBenchRow]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo run --release -p nuchase-bench --bin harness -- --bench-prepared\","
    );
    let _ = writeln!(
        out,
        "  \"cold\": \"compile Sigma + build engine per chase (per-request baseline)\","
    );
    let _ = writeln!(
        out,
        "  \"prepared\": \"one PreparedProgram, fresh Engine per chase (program reuse only)\","
    );
    let _ = writeln!(
        out,
        "  \"warm\": \"one PreparedProgram + one Engine across all chases (serving configuration)\","
    );
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        nuchase_engine::auto_threads()
    );
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", row.name);
        let _ = writeln!(out, "      \"databases\": {},", row.databases);
        let _ = writeln!(out, "      \"chase_atoms\": {},", row.chase_atoms);
        let _ = writeln!(out, "      \"cold\": {},", mode_json(&row.cold));
        let _ = writeln!(out, "      \"prepared\": {},", mode_json(&row.prepared));
        let _ = writeln!(out, "      \"warm\": {},", mode_json(&row.warm));
        let _ = writeln!(out, "      \"amortization\": {:.2},", row.amortization);
        let _ = writeln!(out, "      \"program_gain\": {:.2}", row.program_gain);
        let _ = writeln!(out, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a human-readable table of the prepared-bench rows.
pub fn prepared_bench_table(rows: &[PreparedBenchRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>6} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "workload", "dbs", "cold/chase", "prep/chase", "warm/chase", "prep×", "amort×"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:>9.1} µs {:>9.1} µs {:>9.1} µs {:>8.2}× {:>8.2}×",
            r.name,
            r.databases,
            r.cold.per_chase_us,
            r.prepared.per_chase_us,
            r.warm.per_chase_us,
            r.program_gain,
            r.amortization
        );
    }
    out
}

/// Mixed fast/slow serving tenants: the prepared bench's OBDA workload
/// (one fixed Σ, many disjoint tenant databases) with every eighth
/// tenant "slow" — 20× the seed facts — so the scheduler's quantum
/// slicing has something to be fair about. Returns the ontology, the
/// tenant databases, and the per-tenant slow flag.
fn serve_tenants(tenants: usize) -> (TgdSet, Vec<Instance>, Vec<bool>) {
    let mut symbols = SymbolTable::new();
    let tgds = nuchase_gen::scenarios::obda_ontology(&mut symbols);
    let mut databases = Vec::new();
    let mut slow = Vec::new();
    for t in 0..tenants {
        let is_slow = t % 8 == 7;
        let facts = if is_slow { 120 } else { 6 };
        let depts = facts / 4 + 1;
        let mut text = String::new();
        for i in 0..facts {
            text.push_str(&format!("employee(t{t}e{i}).\n"));
            text.push_str(&format!("worksfor(t{t}e{i}, t{t}d{}).\n", i % depts));
            if i % 3 == 0 {
                text.push_str(&format!("assignedto(t{t}e{i}, t{t}p{}).\n", i % 2));
            }
        }
        databases.push(parse_database(&text, &mut symbols).expect("tenant db"));
        slow.push(is_slow);
    }
    (tgds, databases, slow)
}

/// Throughput and latency of one concurrency level of the serve bench
/// (the best-throughput iteration of `runs`).
#[derive(Debug, Clone)]
pub struct ServeLevelNumbers {
    /// Concurrent sessions submitted before the first result is awaited.
    pub sessions: usize,
    /// Wall seconds from first submit to last result.
    pub total_secs: f64,
    /// `sessions / total_secs` — the headline serving throughput.
    pub chases_per_sec: f64,
    /// Median end-to-end latency (queue wait + execution), µs.
    pub p50_latency_us: f64,
    /// 99th-percentile end-to-end latency, µs.
    pub p99_latency_us: f64,
    /// Median *execution* wall (queue wait excluded) of the fast
    /// tenants' sessions, µs — compared against the solo wall to bound
    /// how much concurrent load dilates a small request.
    pub fast_p50_wall_us: f64,
    /// Median execution wall of the slow tenants' sessions, µs.
    pub slow_p50_wall_us: f64,
    /// Peak worker-pool occupancy gauge observed across the level.
    pub peak_occupancy: f64,
}

/// The serve-facade benchmark row: one workload, one thread count, a
/// gated baseline, and the concurrency sweep.
#[derive(Debug, Clone)]
pub struct ServeBenchRow {
    /// Workload name.
    pub name: &'static str,
    /// Engine thread configuration (`ChaseConfig::threads`).
    pub threads: usize,
    /// Distinct tenant databases cycled through by the sessions.
    pub tenants: usize,
    /// Atoms of one full tenant sweep — identical between submitted
    /// jobs and blocking solo chases (spot-asserted via `set_eq`).
    pub chase_atoms: usize,
    /// The PR 5 regime: one warm engine, blocking `chase` calls in a
    /// loop (every session holds the engine exclusively), chases/sec.
    pub gated_chases_per_sec: f64,
    /// Median solo (unloaded, blocking) wall of a fast tenant, µs.
    pub solo_fast_wall_us: f64,
    /// One entry per concurrency level, ascending.
    pub levels: Vec<ServeLevelNumbers>,
    /// Best serve throughput across levels ÷ the gated baseline — the
    /// "killing the gate cost nothing" bar (≥ 0.9 asserted, full runs).
    pub serve_vs_gated: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the serve-facade benchmark: N concurrent sessions submitted to
/// one [`Engine`] through the non-blocking [`Engine::submit`] queue,
/// measured against the gated (blocking-loop) baseline the scheduler
/// replaced. Sessions cycle through mixed fast/slow tenant databases
/// (`serve_tenants` — the prepared bench's 512-tenant OBDA regime
/// with every eighth tenant 20× larger). Each concurrency level keeps
/// the best-throughput iteration of `runs`; `quick` shrinks tenants and
/// levels for the CI smoke.
///
/// Full (non-quick) runs assert the ISSUE's acceptance bars:
/// * best serve throughput ≥ 0.9× the gated loop, and
/// * the fast tenants' median execution wall under the heaviest
///   concurrent load ≤ 2× their solo wall (queue wait is offered-load,
///   not scheduler dilation, so it is excluded from this bar — it is
///   still reported in the latency percentiles).
///
/// Every level spot-checks result identity: the first eight sessions'
/// instances must equal a blocking solo chase of the same tenant.
pub fn run_serve_bench(runs: usize, quick: bool) -> ServeBenchRow {
    let tenants = if quick { 64 } else { 512 };
    let levels: &[usize] = if quick { &[16, 64] } else { &[64, 512, 4096] };
    // Match the host's parallelism (capped for very wide machines):
    // oversubscribing scheduler workers on a small container turns every
    // engaged round's phase handoff into cross-thread futex ping-pong,
    // which measures the OS scheduler rather than ours. Concurrency is
    // the point here, not parallelism — one worker still multiplexes
    // every level through round-boundary quanta.
    let threads = nuchase_engine::auto_threads().clamp(1, 8);
    let config = ChaseConfig {
        threads,
        ..Default::default()
    };
    let (tgds, databases, slow) = serve_tenants(tenants);
    let program = PreparedProgram::compile(tgds);
    let engine = Engine::from_config(&config);
    let t0 = Instant::now();
    let progress = |what: &str| {
        eprintln!("[serve bench {:7.1}s] {what}", t0.elapsed().as_secs_f64());
    };

    // Solo references: blocking chases on the warm engine — both the
    // identity oracle and the unloaded-latency yardstick.
    progress("solo reference sweep");
    let solo: Vec<Instance> = databases
        .iter()
        .map(|db| engine.chase(&program, db).instance)
        .collect();
    let chase_atoms: usize = solo.iter().map(Instance::len).sum();
    let mut fast_walls: Vec<f64> = Vec::new();
    for (i, db) in databases.iter().enumerate() {
        if !slow[i] {
            fast_walls.push(engine.chase(&program, db).stats.wall_secs);
        }
    }
    fast_walls.sort_by(f64::total_cmp);
    let solo_fast_wall_us = percentile(&fast_walls, 0.5) * 1e6;

    // The gated baseline: the largest level's session list executed as
    // PR 5 would — blocking chases holding the engine exclusively.
    //
    // Baseline and serve iterations are *interleaved* (one gated pass,
    // then one pass of every level, repeated `runs` times) rather than
    // measured in separate blocks: a shared container's effective CPU
    // speed drifts by tens of percent over seconds, and a
    // block-ordered comparison hands whichever side ran during the
    // fast window a phantom lead. Interleaving exposes both sides to
    // the same drift; best-of-`runs` then picks each side's clean
    // window.
    let gated_sessions = *levels.last().expect("levels nonempty");
    let mut gated_best = f64::INFINITY;

    // Serve levels submit against shared tenant bases, the way a server
    // keeps resident databases and fans requests over them: enqueueing
    // costs a refcount, and the per-chase working copy is made when the
    // job runs. (The gated loop pays the same copy inside
    // `Engine::chase`, so the comparison is one working copy per chase
    // on both sides.)
    let shared_databases: Vec<std::sync::Arc<Instance>> = databases
        .iter()
        .map(|db| std::sync::Arc::new(db.clone()))
        .collect();

    let mut level_best: Vec<Option<ServeLevelNumbers>> = levels.iter().map(|_| None).collect();
    for run in 0..runs {
        progress(&format!("paired iteration {}/{runs}: gated pass", run + 1));
        let t = Instant::now();
        for s in 0..gated_sessions {
            let db = &databases[s % tenants];
            let r = engine.chase(&program, db);
            assert_eq!(r.instance.len(), solo[s % tenants].len());
        }
        gated_best = gated_best.min(t.elapsed().as_secs_f64());

        for (li, &sessions) in levels.iter().enumerate() {
            // One timed iteration repeats the burst until it has
            // served as many sessions as the gated pass, whatever the
            // level — a single 64-session burst is ~3ms of wall on
            // this workload, far too short to compare against a
            // ~200ms pass without the ratio drowning in
            // scheduler-timeslice noise. Concurrency semantics are
            // unchanged: at most `sessions` chases are ever in flight.
            let bursts = gated_sessions.div_ceil(sessions).max(1);
            let best = &mut level_best[li];
            progress(&format!(
                "paired iteration {}/{runs}: level {sessions}",
                run + 1
            ));
            let t = Instant::now();
            let mut latencies = Vec::with_capacity(sessions * bursts);
            let mut fast = Vec::new();
            let mut slow_walls = Vec::new();
            let mut occupancy = 0.0f64;
            for burst in 0..bursts {
                let handles: Vec<_> = (0..sessions)
                    .map(|s| engine.submit_shared(&program, &shared_databases[s % tenants]))
                    .collect();
                // Streamed collection: each result is consumed (and
                // freed) as it completes, like a server writing
                // responses out — a burst never holds all its result
                // instances live at once.
                JobHandle::wait_each(handles, |s, r| {
                    if run == 0 && burst == 0 && s < 8 {
                        assert!(
                            r.instance.set_eq(&solo[s % tenants]),
                            "serve: session {s} diverged from its solo chase"
                        );
                    }
                    latencies.push(r.stats.sched_wait_secs + r.stats.wall_secs);
                    if slow[s % tenants] {
                        slow_walls.push(r.stats.wall_secs);
                    } else {
                        fast.push(r.stats.wall_secs);
                    }
                    occupancy = occupancy.max(r.stats.sched_occupancy);
                });
            }
            let total_secs = t.elapsed().as_secs_f64();
            latencies.sort_by(f64::total_cmp);
            fast.sort_by(f64::total_cmp);
            slow_walls.sort_by(f64::total_cmp);
            let row = ServeLevelNumbers {
                sessions,
                total_secs,
                chases_per_sec: (sessions * bursts) as f64 / total_secs.max(1e-12),
                p50_latency_us: percentile(&latencies, 0.5) * 1e6,
                p99_latency_us: percentile(&latencies, 0.99) * 1e6,
                fast_p50_wall_us: percentile(&fast, 0.5) * 1e6,
                slow_p50_wall_us: percentile(&slow_walls, 0.5) * 1e6,
                peak_occupancy: occupancy,
            };
            if best
                .as_ref()
                .is_none_or(|b| row.chases_per_sec > b.chases_per_sec)
            {
                *best = Some(row);
            }
        }
    }
    let gated_chases_per_sec = gated_sessions as f64 / gated_best.max(1e-12);
    progress(&format!(
        "gated baseline: {gated_chases_per_sec:.0} chases/s"
    ));
    let level_rows: Vec<ServeLevelNumbers> = level_best
        .into_iter()
        .map(|best| best.expect("runs >= 1"))
        .collect();
    for row in &level_rows {
        progress(&format!(
            "level {}: best {:.0} chases/s (p50 {:.0}us, p99 {:.0}us)",
            row.sessions, row.chases_per_sec, row.p50_latency_us, row.p99_latency_us
        ));
    }

    let best_serve = level_rows
        .iter()
        .map(|l| l.chases_per_sec)
        .fold(0.0f64, f64::max);
    let serve_vs_gated = best_serve / gated_chases_per_sec.max(1e-12);
    if !quick {
        assert!(
            serve_vs_gated >= 0.9,
            "serve throughput {best_serve:.0}/s is below 0.9x the gated loop \
             ({gated_chases_per_sec:.0}/s)"
        );
        let heaviest = level_rows.last().expect("levels nonempty");
        assert!(
            heaviest.fast_p50_wall_us <= 2.0 * solo_fast_wall_us.max(1.0),
            "fast-tenant p50 execution wall {:.1}us under {} sessions exceeds 2x \
             the solo wall {solo_fast_wall_us:.1}us",
            heaviest.fast_p50_wall_us,
            heaviest.sessions
        );
    }
    ServeBenchRow {
        name: "obda_mixed_tenants",
        threads,
        tenants,
        chase_atoms,
        gated_chases_per_sec,
        solo_fast_wall_us,
        levels: level_rows,
        serve_vs_gated,
    }
}

fn serve_level_json(l: &ServeLevelNumbers) -> String {
    format!(
        "{{\"sessions\": {}, \"total_secs\": {:.6}, \"chases_per_sec\": {:.1}, \
         \"p50_latency_us\": {:.1}, \"p99_latency_us\": {:.1}, \
         \"fast_p50_wall_us\": {:.1}, \"slow_p50_wall_us\": {:.1}, \
         \"peak_occupancy\": {:.3}}}",
        l.sessions,
        l.total_secs,
        l.chases_per_sec,
        l.p50_latency_us,
        l.p99_latency_us,
        l.fast_p50_wall_us,
        l.slow_p50_wall_us,
        l.peak_occupancy
    )
}

/// Renders the row as the `BENCH_serve.json` document.
pub fn serve_bench_json(row: &ServeBenchRow) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"cargo run --release -p nuchase-bench --bin harness -- --bench-serve\","
    );
    let _ = writeln!(
        out,
        "  \"gated\": \"one warm engine, blocking chase loop (the pre-scheduler exclusive gate)\","
    );
    let _ = writeln!(
        out,
        "  \"serve\": \"same engine, bursts submitted via Engine::submit_shared, streamed out via JobHandle::wait_each\","
    );
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        nuchase_engine::auto_threads()
    );
    let _ = writeln!(out, "  \"name\": \"{}\",", row.name);
    let _ = writeln!(out, "  \"threads\": {},", row.threads);
    let _ = writeln!(out, "  \"tenants\": {},", row.tenants);
    let _ = writeln!(out, "  \"chase_atoms\": {},", row.chase_atoms);
    let _ = writeln!(
        out,
        "  \"gated_chases_per_sec\": {:.1},",
        row.gated_chases_per_sec
    );
    let _ = writeln!(
        out,
        "  \"solo_fast_wall_us\": {:.1},",
        row.solo_fast_wall_us
    );
    let _ = writeln!(out, "  \"serve_vs_gated\": {:.3},", row.serve_vs_gated);
    let _ = writeln!(out, "  \"levels\": [");
    for (i, l) in row.levels.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {}{}",
            serve_level_json(l),
            if i + 1 < row.levels.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders a human-readable table of the serve-bench levels.
pub fn serve_bench_table(row: &ServeBenchRow) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} — {} threads, {} tenants, gated baseline {:.0} chases/s, solo fast {:.0} µs",
        row.name, row.threads, row.tenants, row.gated_chases_per_sec, row.solo_fast_wall_us
    );
    let _ = writeln!(
        out,
        "{:>9} {:>11} {:>11} {:>11} {:>13} {:>13} {:>7}",
        "sessions", "chases/s", "p50 lat", "p99 lat", "fast p50 exec", "slow p50 exec", "occup"
    );
    for l in &row.levels {
        let _ = writeln!(
            out,
            "{:>9} {:>11.0} {:>8.0} µs {:>8.0} µs {:>10.0} µs {:>10.0} µs {:>6.0}%",
            l.sessions,
            l.chases_per_sec,
            l.p50_latency_us,
            l.p99_latency_us,
            l.fast_p50_wall_us,
            l.slow_p50_wall_us,
            l.peak_occupancy * 100.0
        );
    }
    let _ = writeln!(
        out,
        "best serve throughput = {:.2}× the gated loop",
        row.serve_vs_gated
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_agree_across_engines_when_shrunk() {
        // A miniature version of the harness run (tiny budgets) so the
        // test suite exercises the full path without minutes of chasing.
        let (db, tgds, _) = transitive_closure(12);
        let opt = semi_oblivious_chase(&db, &tgds, 10_000);
        let base = baseline_semi_oblivious_chase(&db, &tgds, 10_000);
        assert!(opt.terminated() && base.terminated());
        assert_eq!(opt.instance.len(), 12 * 13 / 2);
        assert!(base.instance.set_eq(&opt.instance));
    }

    #[test]
    fn parallel_bench_quick_runs_and_renders() {
        let rows = run_parallel_bench(1, true);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(r.curve.len(), PARALLEL_THREADS.len());
            assert!(r.curve.iter().all(|n| n.atoms > 0 && n.wall_secs > 0.0));
        }
        let json = parallel_bench_json(&rows);
        assert!(json.contains("\"speedup_4_threads\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(parallel_bench_table(&rows).contains("4-thread speedup"));
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let n = EngineNumbers {
            atoms: 10,
            triggers_considered: 20,
            rounds: 5,
            triggers_per_round: 4.0,
            fused_rounds: 5,
            wall_secs: 0.5,
            atoms_per_sec: 20.0,
            triggers_per_sec: 40.0,
            enumerate_secs: 0.3,
            probe_secs: 0.25,
            emit_secs: 0.05,
            dedup_secs: 0.05,
            apply_secs: 0.1,
            resolve_secs: 0.07,
            commit_secs: 0.03,
            pool_secs: 0.0,
            peak_instance_bytes: 4096,
            peak_null_bytes: 512,
            instance_table_load: 0.5,
            index_spill_count: 0,
            batched_probes: 16,
            prefetch_queue_depth: 8,
        };
        let rows = vec![ChaseBenchRow {
            name: "demo",
            budget: 100,
            baseline: n.clone(),
            pipeline: n.clone(),
            pertrigger: n.clone(),
            optimized: n,
            speedup: 1.0,
            fused_speedup: 1.0,
            batch_speedup: 1.0,
            rules: vec![RuleTelemetry {
                considered: 20,
                deduped: 10,
                fired: 10,
                atoms: 10,
                nulls: 5,
                sampled_secs: 0.0,
            }],
        }];
        let huge = vec![HugeBenchRow {
            name: "huge_demo",
            budget: 1_000,
            ceiling_bytes: 1 << 20,
            spill_file_bytes: 65_536,
            optimized: rows[0].optimized.clone(),
        }];
        let json = chase_bench_json(&rows, &huge);
        assert!(json.contains("\"workloads\""));
        assert!(json.contains("\"rounds\""));
        assert!(json.contains("\"fused_speedup\""));
        assert!(json.contains("\"batch_speedup\""));
        assert!(json.contains("\"probe_secs\""));
        assert!(json.contains("\"emit_secs\""));
        assert!(json.contains("\"peak_instance_bytes\""));
        assert!(json.contains("\"batched_probes\""));
        assert!(json.contains("\"prefetch_queue_depth\""));
        assert!(json.contains("\"huge_workloads\""));
        assert!(json.contains("\"ceiling_bytes\""));
        assert!(json.contains("\"spill_file_bytes\""));
        assert!(json.contains("\"rules\""));
        assert!(json.contains("\"deduped\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(chase_bench_table(&rows).contains("demo"));
        assert!(huge_bench_table(&huge).contains("huge_demo"));
    }

    #[test]
    fn prepared_bench_quick_runs_and_renders() {
        let rows = run_prepared_bench(1, true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.chase_atoms > 0);
            assert!(r.cold.total_secs > 0.0 && r.warm.total_secs > 0.0);
            assert!(r.warm.per_chase_us > 0.0);
        }
        let json = prepared_bench_json(&rows);
        assert!(json.contains("\"amortization\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(prepared_bench_table(&rows).contains("obda_tenants"));
    }

    #[test]
    fn serve_bench_quick_runs_and_renders() {
        let row = run_serve_bench(1, true);
        assert_eq!(row.levels.len(), 2);
        assert!(row.chase_atoms > 0);
        assert!(row.gated_chases_per_sec > 0.0);
        for l in &row.levels {
            assert!(l.chases_per_sec > 0.0);
            assert!(l.p99_latency_us >= l.p50_latency_us);
            assert!(l.fast_p50_wall_us > 0.0 && l.slow_p50_wall_us > 0.0);
        }
        let json = serve_bench_json(&row);
        assert!(json.contains("\"serve_vs_gated\""));
        assert!(json.contains("\"p99_latency_us\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(serve_bench_table(&row).contains("obda_mixed_tenants"));
    }

    #[test]
    fn chase_bench_quick_runs_and_renders() {
        // The CI chain-workload smoke: all engine legs on shrunk
        // budgets, the phase-timer wall accounting asserted inside.
        let rows = run_chase_bench(1, true);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert!(r.optimized.atoms > 0 && r.optimized.wall_secs > 0.0);
            assert_eq!(r.optimized.atoms, r.pipeline.atoms);
            assert!(r.optimized.rounds > 0);
        }
        // The chain workloads run one trigger per round, all fused under
        // Auto.
        let chain = rows
            .iter()
            .find(|r| r.name == "successor_chain_10k")
            .unwrap();
        assert!(chain.optimized.triggers_per_round < 1.5);
        assert_eq!(chain.optimized.fused_rounds, chain.optimized.rounds);
        assert_eq!(chain.pipeline.fused_rounds, 0);
        // The fused probe queue books its prefetched probes.
        assert!(chain.optimized.batched_probes > 0);
        assert!(chain.optimized.prefetch_queue_depth >= 1);
        let json = chase_bench_json(&rows, &[]);
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn wide_bench_quick_runs_and_renders() {
        // The wide-round enumeration smoke: identity + timer accounting
        // are asserted inside run_wide_bench.
        let rows = run_wide_bench(1, true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.batch.atoms > 0 && r.batch.wall_secs > 0.0);
            assert_eq!(r.batch.atoms, r.pertrigger.atoms);
        }
        let star = rows.iter().find(|r| r.name == "star_join_16x6").unwrap();
        // Database: 16 hubs × 3·6 edges + 4 hub seeds + 4·3 hnext links;
        // derived: 4·3 wave-advanced hub atoms, plus the q triples —
        // wave 0 fires 6³, later waves 6³ − 3³ fresh ones each (the
        // (6−3)³ all-overlap triples already fired in the prior wave).
        assert_eq!(
            star.batch.atoms,
            (16 * 18 + 4 + 12) + 12 + (216 + 3 * (216 - 27))
        );
        // Forced On actually routes the wide rounds through the batch
        // path — its emit sub-timer is the tell (per-trigger rounds
        // leave it at zero).
        assert!(star.batch.emit_secs > 0.0);
        assert!(wide_bench_table(&rows).contains("star_join_16x6"));
    }
}
