//! Every workload, briefly: no failed op, every metric reported, the
//! layers each workload exercises non-zero, and the serve latency split
//! adding up.

use chasebench::trace::{self_times, Tracer};
use chasebench::{run, serve, Config, END_TO_END, PER_LAYER, WORKLOADS};

/// Per-layer metrics that must be non-zero on each workload.
fn exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "chain" => &[
            "engine.rounds",
            "engine.fused_rounds",
            "engine.us_per_round",
            "model.parse_ms",
            "host.ref_ms",
        ],
        "wide" => &[
            "engine.batched_rounds",
            "engine.enumerate_ms",
            "engine.fire_ratio",
            "host.ref_ms",
        ],
        "decide" => &[
            "rewrite.gsimple_ms",
            "rewrite.types",
            "rewrite.lin_atoms",
            "core.wa_ms",
            "core.diverging",
            "host.ref_ms",
        ],
        "serve" => &[
            "cli.serve.hold_ms_p50",
            "cli.serve.budget_stops",
            "engine.sched.exec_ms_p50",
            "engine.rounds",
            "model.symbols",
        ],
        _ => unreachable!("unknown workload {workload}"),
    }
}

#[test]
fn every_workload_runs_clean_untraced_and_traced() {
    for workload in WORKLOADS {
        let cfg = Config::short(11);
        let (plain, _) = run(workload, &cfg, false).unwrap();
        assert!(plain.correct(), "{workload}: {:?}", plain.problems);
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        for name in &want {
            assert!(
                names.contains(name),
                "{workload}: {name} missing from {names:?}"
            );
        }
        assert_eq!(names.len(), want.len(), "{workload}: {names:?}");
        for m in &plain.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{workload}: {} = {}",
                m.name,
                m.value
            );
        }

        let (traced, tracer) = run(workload, &cfg, true).unwrap();
        assert!(traced.correct(), "{workload} traced: {:?}", traced.problems);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{workload}");
        for name in exercised(workload) {
            let v = traced.get(name).unwrap();
            assert!(v.is_finite() && v > 0.0, "{workload}: {name} = {v}");
        }
        assert!(!tracer.spans().is_empty());
        let selfs = self_times(tracer.spans());
        for (s, &own) in tracer.spans().iter().zip(&selfs) {
            assert!(
                s.end >= s.start && own <= s.end - s.start,
                "{workload}: {s:?}"
            );
        }
    }
}

#[test]
fn serve_split_adds_up_to_each_latency() {
    let cfg = Config::short(13);
    let mut tracer = Tracer::new(false);
    let (report, splits) = serve::run_split(&cfg, &mut tracer);
    assert!(report.correct(), "{:?}", report.problems);
    assert_eq!(splits.len() as u64, report.attempted);
    for s in &splits {
        assert_eq!(s.late + s.hold + s.wait + s.exec, s.latency, "{s:?}");
        assert!(s.late >= 0 && s.wait >= 0 && s.exec >= 0, "{s:?}");
        // The engine's wait and wall are whole microseconds, taken
        // inside the interval from hand-over to write.
        assert!(s.hold >= -2_000, "{s:?}");
    }
}
