//! `chain` and `wide`: one fixed program chased to its fixpoint again and
//! again on one warm engine.

use std::time::{Duration, Instant};

use nuchase_engine::{baseline_semi_oblivious_chase, ChaseStats, Engine, PreparedProgram};
use nuchase_model::{parse_program, Instance, Program, Term};

use crate::reference::{self, Kernel, Reference};
use crate::trace::{Tracer, SETUP_OP};
use crate::{gen, host, ms, stats, timed, Config, Report, THREADS};
use crate::{CHAIN_REF_MS, CHAIN_WALKS, WIDE_REF_MS};

/// The depth family of Proposition 4.5: one trigger per round.
pub fn chain(cfg: &Config, tracer: &mut Tracer) -> Report {
    let kernel = Kernel::walk(cfg.chain_n, CHAIN_WALKS);
    let mut reference = Reference::new(kernel, CHAIN_REF_MS);
    run(
        &gen::chain_text(cfg.seed, cfg.chain_n),
        &mut reference,
        cfg,
        tracer,
    )
}

/// Transitive closure of a path: few rounds, mostly duplicate triggers.
pub fn wide(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut reference = Reference::new(Kernel::closure(cfg.wide_n), WIDE_REF_MS);
    run(
        &gen::wide_text(cfg.seed, cfg.wide_n),
        &mut reference,
        cfg,
        tracer,
    )
}

/// Order-independent digest of an instance: a wrapping sum of one mixed
/// hash per atom over its predicate and argument ids (constants and
/// nulls apart). Equal for equal atom sets in any order.
pub fn digest(instance: &Instance) -> u64 {
    let mix = |mut z: u64| {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    instance.iter().fold(0u64, |acc, atom| {
        let h = atom.args.iter().fold(mix(atom.pred.0 as u64 + 1), |h, t| {
            let id = match *t {
                Term::Const(c) => c.0 as u64,
                Term::Null(n) => (1 << 32) | n.0 as u64,
                Term::Var(v) => (2 << 32) | v.0 as u64,
            };
            mix(h ^ id.wrapping_add(0x9E37_79B9_7F4A_7C15))
        });
        acc.wrapping_add(h)
    })
}

struct Ready {
    program: Program,
    prepared: PreparedProgram,
    engine: Engine,
}

/// Program-side set-up: parse the text, compile Σ, build the engine and
/// run one untimed warm-up chase. Returns the set-up and its wall, the
/// sum of those four calls; placing the threads is not timed.
fn set_up(text: &str, tracer: &mut Tracer) -> (Ready, f64) {
    let mut wall = Duration::ZERO;
    let mut program = tracer
        .span("parse", SETUP_OP, |_| {
            timed(&mut wall, || parse_program(text))
        })
        .expect("generated program text parses");
    let tgds = std::mem::take(&mut program.tgds);
    let prepared = tracer.span("compile", SETUP_OP, |_| {
        timed(&mut wall, || PreparedProgram::compile(tgds))
    });
    let engine = host::build_placed(|| {
        tracer.span("engine_build", SETUP_OP, |_| {
            timed(&mut wall, || Engine::builder().threads(THREADS).build())
        })
    });
    let warm = tracer.span("warmup", SETUP_OP, |_| {
        timed(&mut wall, || engine.chase(&prepared, &program.database))
    });
    let secs = wall.as_secs_f64();
    drop(warm);
    (
        Ready {
            program,
            prepared,
            engine,
        },
        secs,
    )
}

fn run(text: &str, reference: &mut Reference, cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut ready = None;
    let mut setups = reference.bracket(cfg.setups, || {
        let (r, secs) = set_up(text, tracer);
        ready = Some(r);
        secs
    });
    let Ready {
        program,
        prepared,
        engine,
    } = ready.expect("at least one set-up");

    let mut walls = Vec::new();
    let mut results = Vec::new();
    let mut refs = vec![reference.time()];
    let mut chase_stats: Vec<ChaseStats> = Vec::new();
    let proc_before = host::ProcSample::now();
    let window = Instant::now();
    let ops = crate::for_window(cfg, |op| {
        let span = tracer.begin("chase", op);
        let t = Instant::now();
        let result = engine.chase(&prepared, &program.database);
        let wall = t.elapsed();
        tracer.end(span);
        walls.push(ms(wall));
        let check = tracer.begin("check", op);
        results.push((
            result.outcome.name(),
            result.instance.len(),
            digest(&result.instance),
        ));
        tracer.end(check);
        if tracer.enabled() {
            chase_stats.push(result.stats.clone());
        }
        refs.push(reference.time());
    });
    let window_s = window.elapsed().as_secs_f64();
    crate::set_proc(&mut report, &proc_before, window_s);
    report.attempted = ops;
    report.set("peak_rss_mib", host::peak_rss_mib());

    // The expected result: the seed implementation of the semi-oblivious
    // chase on its own parse of the same text. Computed after the peak
    // resident set is read, so that its memory does not count.
    let expected = {
        let p = parse_program(text).expect("generated program text parses");
        let r = baseline_semi_oblivious_chase(&p.database, &p.tgds, usize::MAX);
        assert!(r.terminated(), "the baseline chase terminates");
        (r.instance.len(), digest(&r.instance))
    };
    for (op, &(outcome, len, dig)) in results.iter().enumerate() {
        if outcome != "terminated" || (len, dig) != expected {
            report.fail(format!(
                "chase {op}: {outcome} with {len} atoms, digest {dig:x}; expected {} atoms, digest {:x}",
                expected.0, expected.1
            ));
        }
    }
    setups.extend(reference.bracket(cfg.setups, || set_up(text, tracer).1));
    report.set("setup_s", stats::small_median(&setups));

    let derived = expected.0 - program.database.len();
    let walls = reference::normalise(&walls, &refs, reference.nominal_ms());
    crate::set_latency(&mut report, &walls);
    crate::set_host(&mut report, &refs);
    let p50_ms = stats::percentile_of(&walls, 0.5).unwrap_or(f64::NAN);
    report.set("atoms_per_s", derived as f64 / (p50_ms / 1e3));
    report.set("ops_per_s", 1e3 / p50_ms);

    if tracer.enabled() {
        layers(&mut report, tracer, &chase_stats, &program);
    }
    report
}

fn layers(report: &mut Report, tracer: &Tracer, runs: &[ChaseStats], program: &Program) {
    let spans = tracer.spans();
    let median =
        |v: Vec<f64>| stats::percentile_of(&v, 0.5).unwrap_or_else(|| stats::small_median(&v));
    let parse_ms = median(crate::trace::durations_ms(spans, "parse"));
    report.set("model.parse_ms", parse_ms);
    report.set(
        "model.parse_ns_per_atom",
        parse_ms * 1e6 / program.database.len() as f64,
    );
    report.set("model.symbols", program.symbols.const_count() as f64);
    report.set(
        "engine.compile_ms",
        median(crate::trace::durations_ms(spans, "compile")),
    );
    report.set(
        "engine.build_ms",
        median(crate::trace::durations_ms(spans, "engine_build")),
    );
    report.set(
        "engine.chase_ms",
        median(crate::trace::durations_ms(spans, "chase")),
    );

    // The chase of median wall: every chase of a run does the same work,
    // and one chase's phases add up to its own wall.
    let mut by_wall: Vec<&ChaseStats> = runs.iter().collect();
    by_wall.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    let median = by_wall[by_wall.len() / 2];
    set_phase(report, median);
    report.set("engine.sched.wait_ms_p50", median.sched_wait_secs * 1e3);
}

/// Sets the engine phase and memory metrics from one chase's statistics,
/// or from the sum of many.
pub(crate) fn set_phase(report: &mut Report, s: &ChaseStats) {
    let ms = |secs: f64| secs * 1e3;
    report.set("engine.rounds", s.rounds as f64);
    report.set(
        "engine.us_per_round",
        s.wall_secs * 1e6 / s.rounds.max(1) as f64,
    );
    report.set("engine.fused_rounds", s.fused_rounds as f64);
    report.set("engine.commit_ms", ms(s.commit_secs));
    report.set("engine.pool_ms", ms(s.pool_secs));
    report.set(
        "engine.unaccounted_ms",
        ms(s.wall_secs - s.enumerate_secs - s.dedup_secs - s.apply_secs - s.pool_secs),
    );
    report.set("engine.enumerate_ms", ms(s.enumerate_secs));
    report.set("engine.probe_ms", ms(s.probe_secs));
    report.set("engine.emit_ms", ms(s.emit_secs));
    report.set("engine.dedup_ms", ms(s.dedup_secs));
    report.set("engine.resolve_ms", ms(s.resolve_secs));
    report.set("engine.batched_rounds", s.batched_rounds as f64);
    report.set("engine.triggers_considered", s.triggers_considered as f64);
    report.set("engine.triggers_fired", s.triggers_fired as f64);
    report.set(
        "engine.fire_ratio",
        s.triggers_fired as f64 / s.triggers_considered.max(1) as f64,
    );
    report.set(
        "engine.peak_instance_mib",
        s.peak_instance_bytes as f64 / (1 << 20) as f64,
    );
    report.set(
        "engine.peak_null_mib",
        s.peak_null_bytes as f64 / (1 << 20) as f64,
    );
    report.set("engine.sched.wait_ms_p50", ms(s.sched_wait_secs));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_sees_content() {
        let a = parse_program("r(a, b). r(b, c). p(a).").unwrap();
        let b = parse_program("r(a, b). p(a). r(b, c).").unwrap();
        // The symbol ids differ between the two parses (constants are
        // interned in order), so compare through one symbol table.
        let mut syms = a.symbols.clone();
        let c = nuchase_model::parse_database("p(a). r(b, c). r(a, b).", &mut syms).unwrap();
        assert_eq!(digest(&a.database), digest(&c));
        assert_eq!(a.database.len(), b.database.len());
        let d = nuchase_model::parse_database("p(a). r(b, c). r(b, a).", &mut syms).unwrap();
        assert_ne!(digest(&a.database), digest(&d));
    }

    #[test]
    fn chain_text_is_the_depth_family() {
        let n = 40;
        let ours = parse_program(&gen::chain_text(5, n)).unwrap();
        let family = nuchase_gen::depth_family(n);
        assert_eq!(ours.database.len(), family.database.len());
        assert_eq!(ours.tgds.len(), family.tgds.len());
        let engine = Engine::builder().threads(THREADS).build();
        let a = engine.chase(&PreparedProgram::compile(ours.tgds.clone()), &ours.database);
        let b = engine.chase(
            &PreparedProgram::compile(family.tgds.clone()),
            &family.database,
        );
        assert_eq!(a.instance.len(), b.instance.len());
        assert_eq!(a.max_depth() as usize, n - 1);
        assert_eq!(b.max_depth() as usize, n - 1);
    }

    #[test]
    fn engine_matches_the_reference_on_both_shapes() {
        for text in [gen::chain_text(3, 200), gen::wide_text(3, 30)] {
            let p = parse_program(&text).unwrap();
            let r = baseline_semi_oblivious_chase(&p.database, &p.tgds, usize::MAX);
            let prepared = PreparedProgram::compile(p.tgds.clone());
            let engine = Engine::builder().threads(THREADS).build();
            let e = engine.chase(&prepared, &p.database);
            assert!(e.terminated());
            assert_eq!(e.instance.len(), r.instance.len());
            assert_eq!(digest(&e.instance), digest(&r.instance));
        }
    }
}
