//! Byte-identity sweeps for the memory-locality tier: the cache-line
//! bucketized table layout, the partitioned batched-probe passes, and
//! the chunked (optionally file-backed) instance arenas must all be
//! unobservable through the engine API — same atoms at the same
//! indexes, same null names and depths, same counters — across thread
//! counts 0/1/2 and both apply paths.
//!
//! The spill test sets the process-global arena spill directory, so the
//! tests serialize on one lock; the arena chunk length is pinned tiny
//! for the whole binary so every chase in here crosses chunk seams
//! constantly.

use std::sync::Mutex;

use nuchase_engine::{chase, ApplyPath, ChaseBudget, ChaseConfig, ChaseResult, ChaseVariant};
use nuchase_gen::{random_program, RandomConfig};
use nuchase_model::TgdClass;

/// Serializes the tests around the process-global spill knob.
static KNOBS: Mutex<()> = Mutex::new(());

/// Pins the arena chunk length to 64 elements for this test binary
/// (cached on first arena use), so a few thousand atoms span dozens of
/// chunks and every seam behaviour runs under a real chase.
fn pin_tiny_chunks() {
    std::env::set_var("NUCHASE_CHUNK_LEN", "64");
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
}

/// The tentpole sweep: threads 0/1/2 × both apply paths against one
/// sequential auto-path reference per program — all six combinations
/// must be byte-identical.
#[test]
fn bucketized_layout_is_byte_identical_across_threads_and_paths() {
    let _guard = KNOBS.lock().unwrap();
    pin_tiny_chunks();
    let classes = [TgdClass::SimpleLinear, TgdClass::Linear, TgdClass::Guarded];
    let variants = [
        ChaseVariant::SemiOblivious,
        ChaseVariant::Oblivious,
        ChaseVariant::Restricted,
    ];
    for class in classes {
        for seed in 0..3u64 {
            let p = random_program(&RandomConfig {
                class,
                seed,
                ..Default::default()
            });
            for variant in variants {
                let base_cfg = ChaseConfig {
                    variant,
                    budget: ChaseBudget::atoms(3_000),
                    ..Default::default()
                };
                let reference = chase(&p.database, &p.tgds, &base_cfg);
                for threads in [0usize, 1, 2] {
                    for path in [ApplyPath::Fused, ApplyPath::Pipeline] {
                        let run = chase(
                            &p.database,
                            &p.tgds,
                            &ChaseConfig {
                                threads,
                                apply_path: path,
                                ..base_cfg
                            },
                        );
                        assert_byte_identical(
                            &reference,
                            &run,
                            &format!(
                                "{class:?} seed {seed} {variant:?} threads {threads} {path:?}"
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// File-backed arena chunks (the out-of-core spill tier) are invisible
/// to the chase: the same program chased with `NUCHASE_INSTANCE_SPILL_DIR`
/// routed to a temp directory is byte-identical to the heap-backed run,
/// while the instance actually holds mmap-backed bytes (asserted), and
/// the tiny chunk length means its term pool crosses many chunk seams.
/// Every byte the spilled run keeps in files is a byte its heap does
/// not hold: the heap run's peak instance footprint exceeds the spilled
/// run's by exactly the spilled instance's file-backed bytes.
#[test]
fn file_backed_chunks_are_byte_identical_to_heap_chunks() {
    let _guard = KNOBS.lock().unwrap();
    pin_tiny_chunks();
    let p = nuchase_model::parse_program(
        "r(a, b).\n\
         r(X, Y) -> r(Y, Z).\n\
         r(X, Y) -> p(X, Y, X, Y).",
    )
    .unwrap();
    let cfg = ChaseConfig {
        budget: ChaseBudget::atoms(8_000),
        ..Default::default()
    };
    std::env::remove_var("NUCHASE_INSTANCE_SPILL_DIR");
    let heap = chase(&p.database, &p.tgds, &cfg);
    assert_eq!(heap.instance.file_bytes(), 0, "heap run must not spill");

    let dir = std::env::temp_dir().join("nuchase_memory_locality_spill");
    std::fs::create_dir_all(&dir).unwrap();
    std::env::set_var("NUCHASE_INSTANCE_SPILL_DIR", &dir);
    let spilled = chase(&p.database, &p.tgds, &cfg);
    std::env::remove_var("NUCHASE_INSTANCE_SPILL_DIR");
    let _ = std::fs::remove_dir_all(&dir);

    assert_byte_identical(&heap, &spilled, "spill-dir run");
    assert!(
        spilled.instance.file_bytes() > 0,
        "spill run kept every chunk on the heap"
    );
    assert_eq!(
        heap.stats.peak_instance_bytes - spilled.stats.peak_instance_bytes,
        spilled.instance.file_bytes(),
        "the spill tier moved a different byte count off the heap than it holds in files"
    );
}
