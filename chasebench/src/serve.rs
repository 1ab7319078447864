//! `serve`: tenants sent as request lines through
//! `nuchase_cli::serve_batch`, in process, on an open-loop Poisson
//! schedule. A reader hands each line over at its due time and a writer
//! stamps each response line as it is written; there is no client thread
//! and no pipe.

use std::io::{self, BufRead, Read, Write};
use std::time::{Duration, Instant};

use nuchase_engine::{ChaseBudget, ChaseStats, Engine, PreparedProgram};
use nuchase_model::{parse_database, parse_program, Program};

use crate::gen::{self, TENANT_SIGMA};
use crate::reference::{Kernel, Reference};
use crate::stats::{self, ServeSplit};
use crate::trace::{self, Tracer, SETUP_OP};
use crate::{host, timed, Config, Report, SERVE_BUDGET, SERVE_RATE, THREADS};
use crate::{TENANT_KERNEL_REPS, TENANT_REF_MS};

/// Blocks until `due`. The reader spins, yielding, rather than sleeping:
/// waking from a sleep on this virtual machine made hand-over late by
/// 0.1–0.5 ms, depending on the host, and every latency moved with it.
/// The spinning thread has a CPU to itself (`host::build_placed`), so it
/// takes no time from the engine's pool.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Input that releases line `k` no earlier than `due[k]`, and records
/// when it was asked for and when it was handed over.
pub struct PacedInput<'a> {
    lines: Vec<&'a str>,
    due: Vec<Instant>,
    next: usize,
    pos: usize,
    /// When `serve_batch` started waiting for each line.
    pub asked: Vec<Instant>,
    /// When each line was handed over.
    pub handed: Vec<Instant>,
}

impl<'a> PacedInput<'a> {
    pub fn new(lines: Vec<&'a str>, due: Vec<Instant>) -> Self {
        assert_eq!(lines.len(), due.len());
        let n = lines.len();
        PacedInput {
            lines,
            due,
            next: 0,
            pos: 0,
            asked: Vec::with_capacity(n),
            handed: Vec::with_capacity(n),
        }
    }
}

impl BufRead for PacedInput<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let Some(&line) = self.lines.get(self.next) else {
            return Ok(&[]);
        };
        if self.handed.len() == self.next {
            self.asked.push(Instant::now());
            wait_until(self.due[self.next]);
            self.handed.push(Instant::now());
        }
        Ok(&line.as_bytes()[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        let Some(line) = self.lines.get(self.next) else {
            return;
        };
        self.pos += amt;
        if self.pos >= line.len() {
            self.next += 1;
            self.pos = 0;
        }
    }
}

impl Read for PacedInput<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

/// Output that keeps every byte and stamps each line: when its first
/// byte and its newline were written.
#[derive(Default)]
pub struct StampedOutput {
    pub bytes: Vec<u8>,
    /// `(end offset, first byte, newline)` per line.
    pub lines: Vec<(usize, Instant, Instant)>,
    open: Option<Instant>,
}

impl StampedOutput {
    pub fn with_capacity(bytes: usize, lines: usize) -> Self {
        StampedOutput {
            bytes: Vec::with_capacity(bytes),
            lines: Vec::with_capacity(lines),
            open: None,
        }
    }
}

impl Write for StampedOutput {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        let base = self.bytes.len();
        self.bytes.extend_from_slice(buf);
        let mut first = *self.open.get_or_insert(now);
        for (k, _) in buf.iter().enumerate().filter(|(_, &b)| b == b'\n') {
            self.lines.push((base + k + 1, first, now));
            first = now;
        }
        self.open = (buf.last() != Some(&b'\n')).then_some(first);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One `ok` response's fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Response {
    pub outcome: String,
    pub atoms: usize,
    pub derived: usize,
    pub wall_us: u64,
    pub wait_us: u64,
}

/// Parses `<id> ok key=value…` or `<id> error <message>` into the request
/// index of `r<index>` and the response (`Err` with the message).
pub fn parse_response(line: &str) -> Option<(usize, Result<Response, String>)> {
    let (id, rest) = line.split_once(' ')?;
    let index = id.strip_prefix('r')?.parse().ok()?;
    if let Some(msg) = rest.strip_prefix("error ") {
        return Some((index, Err(msg.to_string())));
    }
    let fields = rest.strip_prefix("ok ")?;
    let mut r = Response::default();
    for kv in fields.split_whitespace() {
        let (k, v) = kv.split_once('=')?;
        let num = || v.parse::<u64>().ok();
        match k {
            "outcome" => r.outcome = v.to_string(),
            "atoms" => r.atoms = num()? as usize,
            "derived" => r.derived = num()? as usize,
            "wall_us" => r.wall_us = num()?,
            "wait_us" => r.wait_us = num()?,
            _ => {}
        }
    }
    Some((index, Ok(r)))
}

struct Ready {
    program: Program,
    prepared: PreparedProgram,
    engine: Engine,
}

/// The warm-up request of every set-up.
const WARM_LINE: &str = "w0 emp(we0, wd0). active(we0). emp(we1, wd0).\n";

/// Program-side set-up, as `nuchase serve` does it: parse Σ, compile it,
/// build the engine, and serve one untimed warm-up request. Its wall is
/// the sum of those four calls; placing the threads is not timed.
fn set_up(tracer: &mut Tracer) -> Result<(Ready, f64), String> {
    let mut wall = Duration::ZERO;
    let mut program = tracer
        .span("parse_sigma", SETUP_OP, |_| {
            timed(&mut wall, || parse_program(TENANT_SIGMA))
        })
        .expect("Σ parses");
    let prepared = tracer.span("compile", SETUP_OP, |_| {
        timed(&mut wall, || PreparedProgram::compile(program.tgds.clone()))
    });
    let engine = host::build_placed(|| {
        tracer.span("engine_build", SETUP_OP, |_| {
            timed(&mut wall, || {
                Engine::builder()
                    .threads(THREADS)
                    .budget(ChaseBudget::atoms(SERVE_BUDGET))
                    .build()
            })
        })
    });
    let mut out = Vec::new();
    let served = tracer.span("warmup", SETUP_OP, |_| {
        timed(&mut wall, || {
            nuchase_cli::serve_batch(
                &mut program,
                &engine,
                &prepared,
                WARM_LINE.as_bytes(),
                &mut out,
            )
        })
    });
    let secs = wall.as_secs_f64();
    if !matches!(served, Ok((1, 0))) || !out.starts_with(b"w0 ok outcome=terminated") {
        return Err(format!(
            "warm-up request failed: {}",
            String::from_utf8_lossy(&out)
        ));
    }
    Ok((
        Ready {
            program,
            prepared,
            engine,
        },
        secs,
    ))
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    run_split(cfg, tracer).0
}

/// [`run`], also returning every answered request's latency split.
pub fn run_split(cfg: &Config, tracer: &mut Tracer) -> (Report, Vec<ServeSplit>) {
    let mut report = Report::default();
    let count = ((SERVE_RATE * cfg.seconds).round() as usize).max(1);
    let requests = gen::serve_requests(cfg.seed, count);
    let offsets = gen::poisson_offsets(cfg.seed, count, SERVE_RATE);

    // Set-ups are host-normalised as `decide`'s are; the requests are
    // not, since the schedule paces them (see `reference`).
    let kernel = Kernel::tenant(&gen::warm_tenant().text, TENANT_KERNEL_REPS);
    let mut reference = Reference::new(kernel, TENANT_REF_MS);
    let light = cfg.light_setups;
    let mut ready = None;
    let mut setups = reference.bracket(light, || match set_up(tracer) {
        Ok((r, secs)) => {
            ready = Some(r);
            secs
        }
        Err(e) => {
            report.problems.push(e);
            f64::NAN
        }
    });
    if !report.problems.is_empty() {
        return (report, Vec::new());
    }
    let Ready {
        mut program,
        prepared,
        engine,
    } = ready.expect("at least one set-up");
    let sigma_symbols = program.symbols.clone();

    // A short lead, so that the first line is not due before the reader
    // is first asked for it.
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = offsets
        .iter()
        .map(|&o| t0 + Duration::from_nanos(o))
        .collect();
    let lines = requests.iter().map(|r| r.line.as_str()).collect();
    let mut input = PacedInput::new(lines, due);
    let mut output = StampedOutput::with_capacity(count * 160, count + 1);
    let proc_before = host::ProcSample::now();
    let batch_span = tracer.begin("serve_batch", SETUP_OP);
    let served =
        nuchase_cli::serve_batch(&mut program, &engine, &prepared, &mut input, &mut output);
    tracer.end(batch_span);
    let ended = Instant::now();
    crate::set_proc(&mut report, &proc_before, (ended - t0).as_secs_f64());
    report.set("peak_rss_mib", host::peak_rss_mib());
    report.attempted = count as u64;
    if let Err(e) = served {
        report.problems.push(format!("serve_batch failed: {e}"));
    }
    setups.extend(reference.bracket(light, || match set_up(tracer) {
        Ok((_, secs)) => secs,
        Err(e) => {
            report.problems.push(e);
            f64::NAN
        }
    }));
    report.set("setup_s", stats::small_median(&setups));

    // Match responses to requests.
    let text = String::from_utf8_lossy(&output.bytes).into_owned();
    let mut answers: Vec<Vec<(Result<Response, String>, Instant)>> = vec![Vec::new(); count];
    let mut last_write = t0;
    let mut begin = 0;
    for &(end, first, written) in &output.lines {
        let line = text[begin..end].trim_end();
        begin = end;
        if line.starts_with("served ") {
            continue;
        }
        let Some((i, response)) = parse_response(line).filter(|(i, _)| *i < count) else {
            report
                .problems
                .push(format!("unparsable response line {line:?}"));
            continue;
        };
        last_write = last_write.max(written);
        tracer.record("write", i as u64, first, written, batch_span);
        answers[i].push((response, written));
    }
    for (i, (&asked, &handed)) in input.asked.iter().zip(&input.handed).enumerate() {
        tracer.record("handover", i as u64, asked, handed, batch_span);
    }

    // Check each answer against a solo chase of its tenant, and split
    // its latency.
    let at = |t: Instant| t.saturating_duration_since(t0).as_nanos() as i64;
    let mut splits = Vec::with_capacity(count);
    let mut derived = 0usize;
    let mut budget_stops = 0;
    let mut parse_ms = Vec::new();
    let mut parse_ns_per_atom = Vec::new();
    let mut phases = ChaseStats::default();
    for (i, req) in requests.iter().enumerate() {
        let (r, written) = match answers[i].as_slice() {
            [(Ok(r), written)] => (r, written),
            [(Err(msg), _)] => {
                report.fail(format!("request {i}: error {msg}"));
                continue;
            }
            all => {
                report.fail(format!("request {i}: {} responses", all.len()));
                continue;
            }
        };
        let mut symbols = sigma_symbols.clone();
        let parse = tracer.begin("parse_db", i as u64);
        let t = Instant::now();
        let db = parse_database(req.payload(), &mut symbols);
        let parse_wall = t.elapsed();
        tracer.end(parse);
        parse_ms.push(crate::ms(parse_wall));
        parse_ns_per_atom.push(parse_wall.as_nanos() as f64 / req.facts as f64);
        let solo = match db {
            Ok(db) => tracer.span("solo_chase", i as u64, |_| engine.chase(&prepared, &db)),
            Err(e) => {
                report.fail(format!("request {i}: tenant does not parse: {e}"));
                continue;
            }
        };
        if solo.outcome.name() != r.outcome || solo.instance.len() != r.atoms {
            report.fail(format!(
                "request {i}: served {} with {} atoms, solo chase {} with {}",
                r.outcome,
                r.atoms,
                solo.outcome.name(),
                solo.instance.len()
            ));
            continue;
        }
        derived += r.derived;
        budget_stops += u64::from(r.outcome != "terminated");
        phases.absorb(&solo.stats);
        splits.push(ServeSplit::new(
            offsets[i] as i64,
            at(input.handed[i]),
            at(*written),
            r.wait_us,
            r.wall_us,
        ));
    }

    let run_s = (last_write - t0).as_secs_f64();
    let written = answers.iter().filter(|a| !a.is_empty()).count();
    report.set("ops_per_s", written as f64 / run_s);
    report.set("atoms_per_s", derived as f64 / run_s);
    let ms_of = |f: fn(&ServeSplit) -> i64| -> Vec<f64> {
        splits.iter().map(|s| f(s) as f64 / 1e6).collect()
    };
    crate::set_latency(&mut report, &ms_of(|s| s.latency));

    if tracer.enabled() {
        let pct = |v: &[f64], q| stats::percentile_of(v, q).unwrap_or(f64::NAN);
        let (wait, exec) = (ms_of(|s| s.wait), ms_of(|s| s.exec));
        let (late, hold) = (ms_of(|s| s.late), ms_of(|s| s.hold));
        crate::chase::set_phase(&mut report, &phases);
        report.set("engine.sched.wait_ms_p50", pct(&wait, 0.5));
        report.set("engine.sched.wait_ms_p90", pct(&wait, 0.9));
        report.set("engine.sched.exec_ms_p50", pct(&exec, 0.5));
        report.set("engine.sched.exec_ms_p90", pct(&exec, 0.9));
        report.set("engine.chase_ms", pct(&exec, 0.5));
        report.set("cli.serve.late_ms_p90", pct(&late, 0.9));
        report.set("cli.serve.hold_ms_p50", pct(&hold, 0.5));
        report.set("cli.serve.hold_ms_p90", pct(&hold, 0.9));
        report.set("cli.serve.budget_stops", budget_stops as f64);
        report.set("model.parse_ms", pct(&parse_ms, 0.5));
        report.set("model.parse_ns_per_atom", pct(&parse_ns_per_atom, 0.5));
        report.set("model.symbols", program.symbols.const_count() as f64);
        let spans = tracer.spans();
        let setup_median = |name| stats::small_median(&trace::durations_ms(spans, name));
        report.set("engine.compile_ms", setup_median("compile"));
        report.set("engine.build_ms", setup_median("engine_build"));
    }
    (report, splits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse() {
        let ok = "r12 ok outcome=atom_limit atoms=2001 derived=1990 nulls=9 rounds=500 wall_us=1234 wait_us=5";
        let (i, r) = parse_response(ok).unwrap();
        assert_eq!(i, 12);
        let r = r.unwrap();
        assert_eq!(
            (r.outcome.as_str(), r.atoms, r.derived),
            ("atom_limit", 2001, 1990)
        );
        assert_eq!((r.wall_us, r.wait_us), (1234, 5));
        assert_eq!(
            parse_response("r3 error bad input"),
            Some((3, Err("bad input".to_string())))
        );
        assert_eq!(parse_response("served 3 ok 3 error 0"), None);
    }

    #[test]
    fn paced_input_releases_lines_in_order_and_on_time() {
        let t0 = Instant::now() + Duration::from_millis(3);
        let due = vec![t0, t0 + Duration::from_millis(2)];
        let mut input = PacedInput::new(vec!["a 1\n", "b 2\n"], due.clone());
        let got: Vec<String> = (&mut input).lines().map(|l| l.unwrap()).collect();
        assert_eq!(got, ["a 1", "b 2"]);
        assert!(input.handed[0] >= due[0] && input.handed[1] >= due[1]);
    }

    #[test]
    fn stamped_output_splits_lines_across_writes() {
        let mut out = StampedOutput::default();
        write!(out, "r0 ok").unwrap();
        writeln!(out, " outcome=terminated").unwrap();
        out.write_all(b"r1 error x\nserved 2 ok 1 error 1\n")
            .unwrap();
        assert_eq!(out.lines.len(), 3);
        let ends: Vec<usize> = out.lines.iter().map(|l| l.0).collect();
        let text = String::from_utf8(out.bytes.clone()).unwrap();
        assert_eq!(&text[..ends[0]], "r0 ok outcome=terminated\n");
        assert_eq!(&text[ends[0]..ends[1]], "r1 error x\n");
        assert!(out.lines[0].1 <= out.lines[0].2);
    }
}
