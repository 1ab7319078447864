//! `decide`: the paper's ChTrm(G) decider over a stream of tenant
//! databases. One op parses one database into its own copy of Σ's symbol
//! table and calls `nuchase::decide` (parse → gsimple → weak
//! acyclicity); no chase runs.

use std::time::Instant;

use nuchase_model::{parse_database, parse_program, Program};

use crate::gen::{self, TENANT_SIGMA};
use crate::reference::{self, Kernel, Reference};
use crate::trace::{Tracer, SETUP_OP};
use crate::{host, ms, stats, Config, Report, TENANT_KERNEL_REPS, TENANT_REF_MS};

/// One op: parse `text` under a copy of Σ's symbols and decide it.
/// Returns whether the chase terminates and the constants interned.
///
/// Each op gets its own copy of the symbol table: `gsimple` interns fresh
/// predicates on every call, and a table shared across ops would grow
/// without bound.
fn decide_one(
    sigma: &Program,
    text: &str,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(bool, usize), String> {
    let mut symbols = sigma.symbols.clone();
    let db = tracer
        .span("parse_db", op, |_| parse_database(text, &mut symbols))
        .map_err(|e| format!("parse: {e}"))?;
    let terminates = tracer
        .span("decide", op, |_| {
            nuchase::decide(&db, &sigma.tgds, &mut symbols)
        })
        .map_err(|e| format!("decide: {e}"))?;
    Ok((terminates, symbols.const_count()))
}

/// The two halves of `decide_g`, each in its own span, on a fresh parse
/// of `text`. Returns the verdict and the rewriting's sizes.
fn halves(
    sigma: &Program,
    text: &str,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(bool, [usize; 3]), String> {
    let mut symbols = sigma.symbols.clone();
    let db = parse_database(text, &mut symbols).map_err(|e| format!("parse: {e}"))?;
    let (gs, registry) = tracer
        .span("gsimple", op, |_| {
            nuchase_rewrite::linearize::gsimple(&db, &sigma.tgds, &mut symbols)
        })
        .map_err(|e| format!("gsimple: {e}"))?;
    let wa = tracer.span("is_weakly_acyclic", op, |_| {
        nuchase::is_weakly_acyclic(&gs.database, &gs.tgds)
    });
    Ok((wa, [registry.len(), gs.database.len(), gs.tgds.len()]))
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let warm = gen::warm_tenant();
    let set_up = |tracer: &mut Tracer, report: &mut Report| {
        let start = Instant::now();
        let program = tracer
            .span("parse_sigma", SETUP_OP, |_| parse_program(TENANT_SIGMA))
            .expect("Σ parses");
        let verdict = tracer.span("warmup", SETUP_OP, |t| {
            decide_one(&program, &warm.text, t, SETUP_OP)
        });
        let secs = start.elapsed().as_secs_f64();
        if verdict.map(|(terminates, _)| terminates) != Ok(!warm.diverges) {
            report
                .problems
                .push("the warm-up verdict is wrong".to_string());
        }
        (program, secs)
    };
    // Host speed is read from the fixed warm-up tenant: the op's own
    // tenant would make the kernel's wall vary with the tenant's size.
    let kernel = Kernel::tenant(&warm.text, TENANT_KERNEL_REPS);
    let mut reference = Reference::new(kernel, TENANT_REF_MS);
    let light = cfg.light_setups;
    let mut sigma = None;
    let mut setups = reference.bracket(light, || {
        let (program, secs) = set_up(tracer, &mut report);
        sigma = Some(program);
        secs
    });
    let sigma = sigma.expect("at least one set-up");

    let mut latencies = Vec::new();
    let mut refs = vec![reference.time()];
    let mut facts = Vec::new();
    let mut sizes = Vec::new();
    let mut diverging = 0;
    let mut symbols = 0;
    let proc_before = host::ProcSample::now();
    let window = Instant::now();
    let ops = crate::for_window(cfg, |i| {
        let tenant = gen::decide_tenant(cfg.seed, i);
        let span = tracer.begin("op", i);
        let t = Instant::now();
        let verdict = decide_one(&sigma, &tenant.text, tracer, i);
        let wall = t.elapsed();
        tracer.end(span);
        latencies.push(ms(wall));
        facts.push(tenant.facts);
        match verdict {
            Ok((terminates, consts)) if terminates != tenant.diverges => {
                symbols = consts;
                diverging += u64::from(!terminates);
            }
            Ok((terminates, _)) => report.fail(format!(
                "tenant {i}: decided terminates={terminates}, constructed to diverge={}",
                tenant.diverges
            )),
            Err(e) => report.fail(format!("tenant {i}: {e}")),
        }
        if tracer.enabled() {
            match halves(&sigma, &tenant.text, tracer, i) {
                Ok((wa, size)) if wa != tenant.diverges => sizes.push(size),
                Ok(_) => report
                    .problems
                    .push(format!("tenant {i}: gsimple + WA disagrees with decide")),
                Err(e) => report.problems.push(format!("tenant {i}: {e}")),
            }
        }
        refs.push(reference.time());
    });
    crate::set_proc(&mut report, &proc_before, window.elapsed().as_secs_f64());
    report.attempted = ops;
    report.set("peak_rss_mib", host::peak_rss_mib());
    setups.extend(reference.bracket(light, || set_up(tracer, &mut report).1));
    report.set("setup_s", stats::small_median(&setups));
    let latencies = reference::normalise(&latencies, &refs, reference.nominal_ms());
    crate::set_latency(&mut report, &latencies);
    crate::set_host(&mut report, &refs);
    if let Some(p50) = report.get("latency_p50_ms") {
        report.set("ops_per_s", 1e3 / p50);
    }
    // Median facts over median wall, as `chain` and `wide` divide atoms
    // by the median chase. The median of per-op rates (facts ÷ wall)
    // moved 13% between ten seeds on which the op p50 moved 4%.
    let fact_counts: Vec<f64> = facts.iter().map(|&f| f as f64).collect();
    if let (Some(size), Some(p50)) = (
        stats::percentile_of(&fact_counts, 0.5),
        report.get("latency_p50_ms"),
    ) {
        report.set("atoms_per_s", size / (p50 / 1e3));
    }

    if tracer.enabled() {
        let spans = tracer.spans();
        // Medians over the window's ops; set-up spans are left out.
        let median = |name: &str| {
            let ms: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == name && s.op != SETUP_OP)
                .map(|s| (s.end - s.start) as f64 / 1e6)
                .collect();
            stats::percentile_of(&ms, 0.5).unwrap_or(f64::NAN)
        };
        report.set("model.parse_ms", median("parse_db"));
        let per_atom: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "parse_db" && s.op != SETUP_OP)
            .map(|s| (s.end - s.start) as f64 / facts[s.op as usize] as f64)
            .collect();
        report.set(
            "model.parse_ns_per_atom",
            stats::percentile_of(&per_atom, 0.5).unwrap_or(f64::NAN),
        );
        report.set("model.symbols", symbols as f64);
        report.set("rewrite.gsimple_ms", median("gsimple"));
        report.set("core.wa_ms", median("is_weakly_acyclic"));
        report.set("core.decide_ms", median("decide"));
        report.set("core.diverging", diverging as f64);
        for (k, name) in ["rewrite.types", "rewrite.lin_atoms", "rewrite.lin_tgds"]
            .into_iter()
            .enumerate()
        {
            let v: Vec<f64> = sizes.iter().map(|s| s[k] as f64).collect();
            report.set(name, stats::percentile_of(&v, 0.5).unwrap_or(f64::NAN));
        }
    }
    report
}
