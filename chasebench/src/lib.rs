//! One benchmark for nuchase: four seeded workloads driven through the
//! public APIs of `nuchase-model`, `nuchase-rewrite`, `nuchase`,
//! `nuchase-engine` and `nuchase-cli`. See README.md for why each
//! workload exists and what each metric means.

pub mod chase;
pub mod decide;
pub mod gen;
pub mod host;
pub mod reference;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

/// Engine worker count of every workload: the benchmark host's cores.
pub const THREADS: usize = 2;

/// The workloads, in the order `--workload` lists them.
pub const WORKLOADS: [&str; 4] = ["chain", "wide", "decide", "serve"];

/// Fewest ops a closed-loop window runs, so that its p90 has ten samples
/// beyond it.
pub const MIN_OPS: u64 = 100;

/// Open-loop arrival rate of `serve`, per second.
pub const SERVE_RATE: f64 = 400.0;

/// Atom budget of the `serve` engine; diverging tenants stop here.
pub const SERVE_BUDGET: usize = 500;

/// Nominal wall of `wide`'s reference kernel (see [`reference`]), in ms:
/// about its wall on the 2-vCPU benchmark host when that host ran fast.
/// A host-normalised wall reads as the wall on a host where the kernel
/// takes this long. Any fixed value would do; changing one rescales
/// every normalised metric of its workload.
pub const WIDE_REF_MS: f64 = 70.0;
/// The same for `chain`'s kernel, [`CHAIN_WALKS`] walks of the path.
pub const CHAIN_REF_MS: f64 = 3.5;
pub const CHAIN_WALKS: usize = 4;
/// The same for the tenant kernel, [`TENANT_KERNEL_REPS`] passes over
/// `decide`'s warm-up tenant, which brackets `decide`'s ops and set-ups
/// and `serve`'s set-ups.
pub const TENANT_REF_MS: f64 = 0.4;
pub const TENANT_KERNEL_REPS: usize = 4;

/// Sizes of one run. [`Config::full`] is what the command runs;
/// [`Config::short`] runs every workload briefly for the tests.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Set-ups of `chain` and `wide` before the timed window, and again
    /// after it; `setup_s` is the median of all of them.
    pub setups: usize,
    /// The same for the light set-ups of `decide` and `serve`.
    pub light_setups: usize,
    /// Constants on the depth family's path.
    pub chain_n: usize,
    /// Edges of the transitive-closure path.
    pub wide_n: usize,
}

impl Config {
    pub fn full(seed: u64, seconds: f64) -> Config {
        Config {
            seed,
            seconds,
            setups: 5,
            light_setups: 40,
            chain_n: 12_000,
            wide_n: 200,
        }
    }

    pub fn short(seed: u64) -> Config {
        Config {
            seed,
            seconds: 0.3,
            setups: 2,
            light_setups: 2,
            chain_n: 300,
            // The smallest path whose closure has a batched round.
            wide_n: 160,
        }
    }
}

/// One named value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Problems found while checking outputs, for the log.
    pub problems: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.problems.is_empty()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(name);
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.metrics.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a failed op with its reason (the first few are kept).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each value with all its digits.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("atoms_per_s", "atoms/s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("model.parse_ms", "ms"),
    ("model.parse_ns_per_atom", "ns"),
    ("model.symbols", "count"),
    ("rewrite.gsimple_ms", "ms"),
    ("rewrite.types", "count"),
    ("rewrite.lin_atoms", "count"),
    ("rewrite.lin_tgds", "count"),
    ("core.wa_ms", "ms"),
    ("core.decide_ms", "ms"),
    ("core.diverging", "count"),
    ("engine.compile_ms", "ms"),
    ("engine.build_ms", "ms"),
    ("engine.chase_ms", "ms"),
    ("engine.rounds", "count"),
    ("engine.us_per_round", "us"),
    ("engine.fused_rounds", "count"),
    ("engine.commit_ms", "ms"),
    ("engine.pool_ms", "ms"),
    ("engine.unaccounted_ms", "ms"),
    ("engine.enumerate_ms", "ms"),
    ("engine.probe_ms", "ms"),
    ("engine.emit_ms", "ms"),
    ("engine.dedup_ms", "ms"),
    ("engine.resolve_ms", "ms"),
    ("engine.batched_rounds", "count"),
    ("engine.triggers_considered", "count"),
    ("engine.triggers_fired", "count"),
    ("engine.fire_ratio", "ratio"),
    ("engine.peak_instance_mib", "MiB"),
    ("engine.peak_null_mib", "MiB"),
    ("engine.sched.wait_ms_p50", "ms"),
    ("engine.sched.wait_ms_p90", "ms"),
    ("engine.sched.exec_ms_p50", "ms"),
    ("engine.sched.exec_ms_p90", "ms"),
    ("cli.serve.late_ms_p90", "ms"),
    ("cli.serve.hold_ms_p50", "ms"),
    ("cli.serve.hold_ms_p90", "ms"),
    ("cli.serve.budget_stops", "count"),
    ("proc.cpu_s", "s"),
    ("proc.cpu_util", "ratio"),
    ("proc.ctx_voluntary", "count"),
    ("proc.ctx_involuntary", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("host.ref_ms", "ms"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Runs one workload. Untraced runs report the end-to-end metrics;
/// traced runs time an untraced half, then a traced half, and report the
/// per-layer metrics with the tracing overhead between the two.
pub fn run(workload: &str, cfg: &Config, traced: bool) -> Result<(Report, trace::Tracer), String> {
    let f = match workload {
        "chain" => chase::chain,
        "wide" => chase::wide,
        "decide" => decide::run,
        "serve" => serve::run,
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {WORKLOADS:?}"
            ))
        }
    };
    if !traced {
        let mut tracer = trace::Tracer::new(false);
        let mut report = f(cfg, &mut tracer);
        for (name, _) in END_TO_END {
            if report.get(name).is_none() {
                report
                    .problems
                    .push(format!("{name} could not be measured"));
            }
        }
        report
            .metrics
            .retain(|m| END_TO_END.iter().any(|(n, _)| *n == m.name));
        return Ok((report, tracer));
    }
    let half = Config {
        seconds: cfg.seconds / 2.0,
        ..cfg.clone()
    };
    let mut quiet = trace::Tracer::new(false);
    let untraced = f(&half, &mut quiet);
    let mut tracer = trace::Tracer::new(true);
    let mut report = f(&half, &mut tracer);
    let base = untraced.get("latency_p50_ms").unwrap_or(f64::NAN);
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
    report.problems.extend(untraced.problems);
    let with = report.get("latency_p50_ms").unwrap_or(f64::NAN);
    report.set("trace.overhead_pct", (with / base - 1.0) * 100.0);
    report.set("trace.spans", tracer.spans().len() as f64);
    report
        .metrics
        .retain(|m| PER_LAYER.iter().any(|(n, _)| *n == m.name));
    for (name, _) in PER_LAYER {
        if report.get(name).is_none() {
            report.set(name, 0.0);
        }
    }
    report
        .metrics
        .sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
    Ok((report, tracer))
}

/// Runs `op` back to back until `cfg.seconds` have passed and it ran at
/// least [`MIN_OPS`] times; returns how many times it ran.
pub fn for_window(cfg: &Config, mut op: impl FnMut(u64)) -> u64 {
    let deadline = Instant::now() + Duration::from_secs_f64(cfg.seconds);
    let mut i = 0;
    loop {
        op(i);
        i += 1;
        if i >= MIN_OPS && Instant::now() >= deadline {
            return i;
        }
    }
}

/// Runs `f` and adds its wall to `total`.
pub fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

/// Milliseconds between two instants.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records the process counters of a timed window.
pub fn set_proc(report: &mut Report, before: &host::ProcSample, wall_s: f64) {
    let after = host::ProcSample::now();
    let cpu = after.cpu_s - before.cpu_s;
    report.set("proc.cpu_s", cpu);
    report.set("proc.cpu_util", cpu / (THREADS as f64 * wall_s));
    report.set(
        "proc.ctx_voluntary",
        after.voluntary.saturating_sub(before.voluntary) as f64,
    );
    report.set(
        "proc.ctx_involuntary",
        after.involuntary.saturating_sub(before.involuntary) as f64,
    );
}

/// Records the median wall of the reference kernel runs of a timed
/// window: how fast the host ran.
pub fn set_host(report: &mut Report, refs_ms: &[f64]) {
    report.set("host.ref_ms", stats::small_median(refs_ms));
}

/// Sets `latency_p50_ms` and `latency_p90_ms` from per-op latencies.
pub fn set_latency(report: &mut Report, latencies_ms: &[f64]) {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    if let Some(p50) = stats::percentile(&sorted, 0.5) {
        report.set("latency_p50_ms", p50);
    }
    if let Some(p90) = stats::percentile(&sorted, 0.9) {
        report.set("latency_p90_ms", p90);
    }
}
