//! Property-style tests on the core invariants, driven by the seeded
//! deterministic generator (`nuchase_gen::random_program`).
//!
//! These were originally written against `proptest`; the offline build
//! environment has no access to it, and the structured generator already
//! owns the randomness, so each property is exercised as a deterministic
//! sweep over seeds × classes instead. Coverage is equivalent (proptest
//! was only sampling seeds from the same space); shrinking is replaced by
//! the seed being printed in every assertion message.

use nuchase_engine::{
    chase, semi_oblivious_chase, ChaseBudget, ChaseConfig, ChaseResult, ChaseVariant,
};
use nuchase_gen::{random_program, RandomConfig};
use nuchase_model::{parse_program, Atom, Instance, Program, TgdClass};

const CLASSES: [TgdClass; 3] = [TgdClass::SimpleLinear, TgdClass::Linear, TgdClass::Guarded];

/// Thread counts the determinism sweep pins against `threads: 0`: 1, 2
/// (helpers drain wide rounds), and a non-power-of-two, plus whatever
/// `NUCHASE_THREADS` asks for (the CI matrix routes 1, 4 and 8 through
/// it).
fn differential_thread_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 7];
    if let Some(n) = std::env::var("NUCHASE_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        if n >= 1 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

fn assert_byte_identical(a: &ChaseResult, b: &ChaseResult, label: &str) {
    assert_eq!(a.outcome, b.outcome, "{label}: outcome");
    assert!(
        a.instance.indexed_eq(&b.instance),
        "{label}: atoms differ (or are ordered differently)"
    );
    assert_eq!(a.stats.rounds, b.stats.rounds, "{label}: rounds");
    assert_eq!(
        a.stats.triggers_considered, b.stats.triggers_considered,
        "{label}: triggers considered"
    );
    assert_eq!(
        a.stats.triggers_fired, b.stats.triggers_fired,
        "{label}: triggers fired"
    );
    assert_eq!(a.nulls.len(), b.nulls.len(), "{label}: null count");
    for i in 0..a.nulls.len() {
        let id = nuchase_model::NullId(i as u32);
        assert_eq!(a.nulls.depth(id), b.nulls.depth(id), "{label}: null depth");
        assert_eq!(a.nulls.key(id), b.nulls.key(id), "{label}: null name");
    }
    assert_eq!(
        a.atom_depth_histogram(),
        b.atom_depth_histogram(),
        "{label}: depth histogram"
    );
    let (pa, pb) = (
        a.provenance.as_ref().expect("provenance recorded"),
        b.provenance.as_ref().expect("provenance recorded"),
    );
    assert_eq!(pa.len(), pb.len(), "{label}: provenance length");
    for idx in 0..pa.len() as u32 {
        assert_eq!(
            pa.derivation(idx),
            pb.derivation(idx),
            "{label}: provenance of atom {idx}"
        );
    }
}

/// The work counters a run reports do not depend on who drained its
/// units. Kept out of [`assert_byte_identical`]: the apply-path and
/// batch sweeps share that helper, and there `fused_rounds` and the
/// `batched_*` gauges differ by design.
fn assert_same_counters(a: &ChaseResult, b: &ChaseResult, label: &str) {
    let (sa, sb) = (&a.stats, &b.stats);
    assert_eq!(sa.fused_rounds, sb.fused_rounds, "{label}: fused rounds");
    assert_eq!(
        sa.batched_rounds, sb.batched_rounds,
        "{label}: batched rounds"
    );
    assert_eq!(
        sa.batched_probes, sb.batched_probes,
        "{label}: batched probes"
    );
    assert_eq!(
        sa.prefetch_queue_depth, sb.prefetch_queue_depth,
        "{label}: prefetch queue depth"
    );
    assert_eq!(sa.atoms_created, sb.atoms_created, "{label}: atoms created");
    assert_eq!(sa.nulls_created, sb.nulls_created, "{label}: nulls created");
}

/// Transitive closure of an `n`-edge path. At `n = 200` its rounds 6–9
/// have deltas of 2,824 to 6,688 atoms, so helpers drain them at
/// `threads ≥ 2`, and rounds 7 and 8 cross the batch floor.
fn path_closure(n: usize) -> Program {
    let mut text = String::new();
    for i in 0..n {
        text.push_str(&format!("e(n{i}, n{}).\n", i + 1));
    }
    text.push_str("e(X, Y), e(Y, Z) -> e(X, Z).\n");
    parse_program(&text).unwrap()
}

/// 18 rules over one body predicate: every round's task list reaches
/// the helpers' task floor on a two-atom delta.
fn eighteen_rules() -> Program {
    let mut text = String::from("e(a, b).\ne(b, c).\n");
    for i in 0..18 {
        text.push_str(&format!("e(X, Y) -> q{i}(X, Y).\n"));
    }
    parse_program(&text).unwrap()
}

/// A chase is **byte-identical** at every thread count — same atoms at
/// the same indexes, same null names and depths, same provenance, same
/// round/trigger counts, and the same work counters — at thread counts
/// 1, 2, and 7 against `threads: 0`, across the random-instance sweep
/// plus two wide inputs, for every chase variant (including the
/// restricted chase, whose activeness re-check runs under the
/// enumerate/apply phase split).
#[test]
fn parallel_chase_matches_sequential_byte_for_byte() {
    let counts = differential_thread_counts();
    let variants = [
        ChaseVariant::SemiOblivious,
        ChaseVariant::Oblivious,
        ChaseVariant::Restricted,
    ];
    let mut inputs: Vec<(String, Program, ChaseBudget)> = Vec::new();
    for class in CLASSES {
        for seed in 0..8u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            inputs.push((
                format!("{class:?} seed {seed}"),
                p,
                ChaseBudget::atoms(5_000),
            ));
        }
    }
    inputs.push((
        "path closure".into(),
        path_closure(200),
        ChaseBudget::atoms(40_000),
    ));
    inputs.push((
        "18 rules".into(),
        eighteen_rules(),
        ChaseBudget::atoms(5_000),
    ));
    for (name, p, budget) in &inputs {
        for variant in variants {
            let cfg = ChaseConfig {
                variant,
                budget: *budget,
                record_provenance: true,
                ..Default::default()
            };
            let sequential = chase(&p.database, &p.tgds, &cfg);
            for &threads in &counts {
                let parallel = chase(&p.database, &p.tgds, &ChaseConfig { threads, ..cfg });
                let label = format!("{name} {variant:?} threads {threads}");
                assert_byte_identical(&sequential, &parallel, &label);
                assert_same_counters(&sequential, &parallel, &label);
            }
        }
    }
}

/// The fused micro-round apply path and the staged pipeline are
/// byte-identical — same atoms at the same indexes, same null names and
/// depths, same provenance, forest, and counters — forced on/off across
/// every chase variant and class, at thread counts 0 (sequential engine),
/// 1 (single-worker executor), and 2 (pool executor, whose inline rounds
/// ride the fused path too). `Auto` must equal both.
#[test]
fn fused_and_pipeline_apply_paths_are_byte_identical() {
    use nuchase_engine::ApplyPath;
    let variants = [
        ChaseVariant::SemiOblivious,
        ChaseVariant::Oblivious,
        ChaseVariant::Restricted,
    ];
    for class in CLASSES {
        for seed in 0..5u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            for variant in variants {
                for threads in [0usize, 1, 2] {
                    let cfg = ChaseConfig {
                        variant,
                        threads,
                        budget: ChaseBudget::atoms(4_000),
                        record_provenance: true,
                        build_forest: true,
                        apply_path: ApplyPath::Pipeline,
                        ..Default::default()
                    };
                    let label = format!("{class:?} seed {seed} {variant:?} threads {threads}");
                    let pipeline = chase(&p.database, &p.tgds, &cfg);
                    let fused = chase(
                        &p.database,
                        &p.tgds,
                        &ChaseConfig {
                            apply_path: ApplyPath::Fused,
                            ..cfg
                        },
                    );
                    assert_byte_identical(&pipeline, &fused, &format!("{label} fused"));
                    let auto = chase(
                        &p.database,
                        &p.tgds,
                        &ChaseConfig {
                            apply_path: ApplyPath::Auto,
                            ..cfg
                        },
                    );
                    assert_byte_identical(&pipeline, &auto, &format!("{label} auto"));
                    // The guarded chase forest too (assert_byte_identical
                    // covers provenance but not parents).
                    let (fa, fb) = (
                        pipeline.forest.as_ref().expect("forest recorded"),
                        fused.forest.as_ref().expect("forest recorded"),
                    );
                    assert_eq!(fa.len(), fb.len(), "{label}: forest length");
                    for i in 0..fa.len() as u32 {
                        assert_eq!(fa.parent(i), fb.parent(i), "{label}: parent of {i}");
                    }
                }
            }
        }
    }
}

/// Telemetry observes and never steers: runs at `Counters` and `Full`
/// are **byte-identical** to an untelemetered (`Off`) run — same atoms
/// at the same indexes, same null names and depths, same provenance,
/// same counters — across classes, thread counts 0 (sequential engine),
/// 1 (single-worker executor), and 2 (pool executor), and both forced
/// apply paths. The enabled runs additionally uphold the attribution
/// invariant: per-rule trigger/fired/null counts partition the
/// aggregate stats exactly.
#[test]
fn telemetry_levels_are_byte_identical() {
    use nuchase_engine::{ApplyPath, Engine, PreparedProgram, TelemetryLevel};
    for class in CLASSES {
        for seed in 0..5u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            let program = PreparedProgram::compile(p.tgds.clone());
            for threads in [0usize, 1, 2] {
                for path in [ApplyPath::Pipeline, ApplyPath::Fused] {
                    let cfg = ChaseConfig {
                        threads,
                        apply_path: path,
                        budget: ChaseBudget::atoms(4_000),
                        record_provenance: true,
                        ..Default::default()
                    };
                    let label = format!("{class:?} seed {seed} threads {threads} {path:?}");
                    let off = chase(&p.database, &p.tgds, &cfg);
                    for level in [TelemetryLevel::Counters, TelemetryLevel::Full] {
                        let engine = Engine::from_config(&ChaseConfig {
                            telemetry: level,
                            ..cfg
                        });
                        let traced = engine.chase(&program, &p.database);
                        assert_byte_identical(&off, &traced, &format!("{label} {}", level.name()));
                        let snap = traced.telemetry.as_ref().expect("telemetry enabled");
                        assert_eq!(
                            snap.rules.iter().map(|r| r.considered).sum::<usize>(),
                            traced.stats.triggers_considered,
                            "{label} {}: considered partition",
                            level.name()
                        );
                        assert_eq!(
                            snap.rules.iter().map(|r| r.fired).sum::<usize>(),
                            traced.stats.triggers_fired,
                            "{label} {}: fired partition",
                            level.name()
                        );
                        assert_eq!(
                            snap.rules.iter().map(|r| r.nulls).sum::<usize>(),
                            traced.stats.nulls_created,
                            "{label} {}: nulls partition",
                            level.name()
                        );
                    }
                }
            }
        }
    }
}

/// Telemetry exports round-trip on the four example workloads
/// (quickstart's ontology, the data-exchange mapping, the OBDA
/// scenario, and the termination advisor's diverging chain): the JSONL
/// trace is one balanced JSON object per line with the attribution
/// invariant intact, and the chrome://tracing dump is one balanced
/// array of complete `"X"` spans.
#[test]
fn telemetry_exports_round_trip_on_example_workloads() {
    use nuchase_engine::{ChaseBudget, Engine, PreparedProgram, TelemetryLevel};
    use nuchase_model::SymbolTable;

    // (name, database, tgds) for each example's workload.
    let mut workloads: Vec<(&str, Instance, nuchase_model::TgdSet)> = Vec::new();
    let quickstart = nuchase_model::parse_program(
        "person(alice).\nparent(alice, bob).\n\
         parent(X, Y) -> person(Y).\nperson(X) -> hasparent(X, Y).\n\
         hasparent(X, Y) -> person(Y).",
    )
    .unwrap();
    workloads.push(("quickstart", quickstart.database, quickstart.tgds));
    let mut symbols = SymbolTable::new();
    let mapping = nuchase_gen::scenarios::exchange_mapping(&mut symbols);
    let source = nuchase_gen::scenarios::exchange_source(&mut symbols, 64);
    workloads.push(("data_exchange", source, mapping));
    let obda = nuchase_gen::scenarios::obda_scenario(32);
    workloads.push(("ontology_reasoning", obda.database, obda.tgds));
    let advisor =
        nuchase_model::parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).\nr(X, Y) -> p(X, Y).").unwrap();
    workloads.push(("termination_advisor", advisor.database, advisor.tgds));

    for (name, db, tgds) in workloads {
        let program = PreparedProgram::compile(tgds);
        let engine = Engine::builder()
            .budget(ChaseBudget::atoms(2_000))
            .telemetry(TelemetryLevel::Full)
            .build();
        let result = engine.chase(&program, &db);
        let snap = result.telemetry.as_ref().expect("telemetry enabled");
        assert_eq!(
            snap.rules.iter().map(|r| r.considered).sum::<usize>(),
            result.stats.triggers_considered,
            "{name}: attribution partition"
        );
        let mut jsonl = Vec::new();
        snap.write_jsonl(&mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(
            text.lines().count(),
            2 + snap.rules.len() + snap.rounds.len(),
            "{name}: meta + memory + rules + rounds"
        );
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "{name}: {line}"
            );
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{name}: {line}"
            );
            assert_eq!(line.matches('"').count() % 2, 0, "{name}: {line}");
        }
        assert!(text.contains("\"type\":\"meta\""), "{name}");
        assert!(text.contains("\"type\":\"memory\""), "{name}");
        let mut chrome = Vec::new();
        snap.write_chrome_trace(&mut chrome).unwrap();
        let ctext = String::from_utf8(chrome).unwrap();
        let trimmed = ctext.trim();
        assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "{name}");
        assert_eq!(
            ctext.matches('{').count(),
            ctext.matches('}').count(),
            "{name}"
        );
        assert!(ctext.contains("\"ph\":\"X\""), "{name}: at least one span");
    }
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

/// A join whose first three rounds each have a delta of over 4,096
/// atoms — past the batch floor, so `Auto` rounds batch.
fn wide_join() -> Program {
    let mut text = String::new();
    for i in 0..4200 {
        text.push_str(&format!("e(n{i}, n{}).\n", i + 1));
    }
    text.push_str("e(X, Y), e(Y, Z) -> p(X, Z).\np(X, Y) -> q(Y, W).\n");
    parse_program(&text).unwrap()
}

/// The columnar batch enumeration path and the per-trigger backtracking
/// search are byte-identical — same atoms at the same indexes, same null
/// names and depths, same provenance, forest, and counters (including
/// `triggers_considered`) — forced on/off across every chase variant and
/// class, at thread counts 0, 1, and 2 (batch inside each shared task).
/// `Auto` must equal both; on the wide join its rounds cross the batch
/// floor, so it batches too. Combined with the CI env sweep
/// (`NUCHASE_FORCE_BATCH_ENUM=0/1` over this whole file), this pins the
/// batch path at threads 0/1/2/7 in both positions of every other
/// differential.
#[test]
fn batch_and_per_trigger_enumeration_are_byte_identical() {
    use nuchase_engine::BatchEnum;
    let variants = [
        ChaseVariant::SemiOblivious,
        ChaseVariant::Oblivious,
        ChaseVariant::Restricted,
    ];
    let mut inputs: Vec<(String, Program, ChaseBudget)> = Vec::new();
    for class in CLASSES {
        for seed in 0..5u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            inputs.push((
                format!("{class:?} seed {seed}"),
                p,
                ChaseBudget::atoms(4_000),
            ));
        }
    }
    inputs.push(("wide join".into(), wide_join(), ChaseBudget::atoms(20_000)));
    for (name, p, budget) in &inputs {
        for variant in variants {
            for threads in [0usize, 1, 2] {
                let cfg = ChaseConfig {
                    variant,
                    threads,
                    budget: *budget,
                    record_provenance: true,
                    build_forest: true,
                    // Explicit Off: the reference leg stays on the
                    // per-trigger path even under the CI env sweep's
                    // NUCHASE_FORCE_BATCH_ENUM=1 (config beats env).
                    batch_enum: BatchEnum::Off,
                    ..Default::default()
                };
                let label = format!("{name} {variant:?} threads {threads}");
                let per_trigger = chase(&p.database, &p.tgds, &cfg);
                let batch = chase(
                    &p.database,
                    &p.tgds,
                    &ChaseConfig {
                        batch_enum: BatchEnum::On,
                        ..cfg
                    },
                );
                assert_byte_identical(&per_trigger, &batch, &format!("{label} batch"));
                let auto = chase(
                    &p.database,
                    &p.tgds,
                    &ChaseConfig {
                        batch_enum: BatchEnum::Auto,
                        ..cfg
                    },
                );
                assert_byte_identical(&per_trigger, &auto, &format!("{label} auto"));
                if name == "wide join" && !env_forbids_batching() {
                    assert!(
                        auto.stats.batched_rounds > 0,
                        "{label}: the auto leg never crossed the batch floor"
                    );
                }
                let (fa, fb) = (
                    per_trigger.forest.as_ref().expect("forest recorded"),
                    batch.forest.as_ref().expect("forest recorded"),
                );
                assert_eq!(fa.len(), fb.len(), "{label}: forest length");
                for i in 0..fa.len() as u32 {
                    assert_eq!(fa.parent(i), fb.parent(i), "{label}: parent of {i}");
                }
            }
        }
    }
}

/// chase(D, Σ) is a *set*: permuting the database insertion order changes
/// nothing about the result (atom count, null count, depth).
#[test]
fn chase_is_order_independent() {
    for class in CLASSES {
        for seed in 0..24u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            let r1 = semi_oblivious_chase(&p.database, &p.tgds, 20_000);
            let reversed: Instance = {
                let mut atoms: Vec<Atom> = p.database.iter().map(|a| a.to_atom()).collect();
                atoms.reverse();
                atoms.into_iter().collect()
            };
            let r2 = semi_oblivious_chase(&reversed, &p.tgds, 20_000);
            assert_eq!(r1.terminated(), r2.terminated(), "{class:?} seed {seed}");
            assert_eq!(
                r1.instance.len(),
                r2.instance.len(),
                "{class:?} seed {seed}"
            );
            assert_eq!(
                r1.stats.nulls_created, r2.stats.nulls_created,
                "{class:?} seed {seed}"
            );
            assert_eq!(r1.max_depth(), r2.max_depth(), "{class:?} seed {seed}");
        }
    }
}

/// Monotonicity: D ⊆ D' implies chase(D, Σ) ⊆ chase(D', Σ) for the
/// semi-oblivious chase (null names depend only on (σ, h|fr)).
#[test]
fn chase_is_monotone_in_the_database() {
    for seed in 0..48u64 {
        let p = random_program(&RandomConfig {
            class: TgdClass::SimpleLinear,
            seed,
            facts: 10,
            ..Default::default()
        });
        let r_full = semi_oblivious_chase(&p.database, &p.tgds, 20_000);
        if !r_full.terminated() {
            continue;
        }
        let smaller: Instance = p
            .database
            .iter()
            .take(p.database.len().saturating_sub(1))
            .map(|a| a.to_atom())
            .collect();
        let r_small = semi_oblivious_chase(&smaller, &p.tgds, 20_000);
        if !r_small.terminated() {
            continue;
        }
        // Null ids may differ between runs, so compare the constant-only
        // projection by membership plus the total counts.
        for atom in r_small.instance.iter().filter(|a| a.is_fact()) {
            assert!(r_full.instance.contains_ref(atom), "seed {seed}");
        }
        assert!(
            r_full.instance.len() >= r_small.instance.len(),
            "seed {seed}"
        );
    }
}

/// Whenever the syntactic decider says "finite", the chase terminates
/// within the class bound |D|·f_C(Σ) — and in practice far below the test
/// budget on these small programs.
#[test]
fn finite_verdicts_are_truthful() {
    for class in CLASSES {
        for seed in 0..32u64 {
            let mut p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            let verdict = match class {
                TgdClass::SimpleLinear => nuchase::decide_sl(&p.database, &p.tgds),
                TgdClass::Linear => nuchase::decide_l(&p.database, &p.tgds, &mut p.symbols),
                TgdClass::Guarded => nuchase::decide_g(&p.database, &p.tgds, &mut p.symbols),
                TgdClass::General => unreachable!(),
            };
            let Ok(finite) = verdict else { continue };
            if finite {
                let r = semi_oblivious_chase(&p.database, &p.tgds, 60_000);
                assert!(
                    r.terminated(),
                    "{class:?} seed {seed}: decider said finite; chase must terminate"
                );
                let bound = nuchase::chase_size_bound(p.database.len(), &p.tgds, class);
                assert!(
                    bound.admits(r.instance.len() as u128),
                    "{class:?} seed {seed}"
                );
            }
        }
    }
}

/// Depth bounds: on terminating runs, maxdepth(D,Σ) ≤ d_C(Σ).
#[test]
fn depth_respects_class_bound() {
    for class in CLASSES {
        for seed in 0..24u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            let r = semi_oblivious_chase(&p.database, &p.tgds, 30_000);
            if !r.terminated() {
                continue;
            }
            let bound = nuchase::depth_bound(&p.tgds, class);
            assert!(
                bound.admits(r.max_depth() as u128),
                "{class:?} seed {seed}: depth {} exceeds d_C = {:?}",
                r.max_depth(),
                bound
            );
        }
    }
}

/// The chase result is a model of Σ whenever it terminates.
#[test]
fn terminated_chase_is_a_model() {
    for class in CLASSES {
        for seed in 0..24u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            let r = semi_oblivious_chase(&p.database, &p.tgds, 30_000);
            if !r.terminated() {
                continue;
            }
            assert!(r.is_model_of(&p.tgds), "{class:?} seed {seed}");
        }
    }
}

/// The restricted chase never produces more atoms than the semi-oblivious
/// one (it skips satisfied heads).
#[test]
fn restricted_is_leaner() {
    for seed in 0..32u64 {
        let p = random_program(&RandomConfig {
            class: TgdClass::SimpleLinear,
            seed,
            ..Default::default()
        });
        let so = semi_oblivious_chase(&p.database, &p.tgds, 20_000);
        if !so.terminated() {
            continue;
        }
        let re = chase(
            &p.database,
            &p.tgds,
            &ChaseConfig {
                variant: ChaseVariant::Restricted,
                ..Default::default()
            },
        );
        if !re.terminated() {
            continue;
        }
        assert!(re.instance.len() <= so.instance.len(), "seed {seed}");
    }
}

/// Parser round-trip: pretty-printing a random program and re-parsing it
/// yields structurally identical TGDs and an equal database.
#[test]
fn parser_pretty_printer_round_trip() {
    use nuchase_model::DisplayWith;
    for class in CLASSES {
        for seed in 0..32u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            let text = format!(
                "{}{}",
                p.database.display(&p.symbols),
                p.tgds.display(&p.symbols)
            );
            let q = nuchase_model::parse_program(&text).unwrap();
            assert_eq!(p.database.len(), q.database.len(), "{class:?} seed {seed}");
            assert_eq!(p.tgds.len(), q.tgds.len(), "{class:?} seed {seed}");
            for ((_, a), (_, b)) in p.tgds.iter().zip(q.tgds.iter()) {
                assert_eq!(a.body().len(), b.body().len());
                assert_eq!(a.head().len(), b.head().len());
                assert_eq!(a.frontier().len(), b.frontier().len());
                assert_eq!(a.existentials().len(), b.existentials().len());
            }
        }
    }
}
