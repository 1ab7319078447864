//! # nuchase-cli
//!
//! The library behind the `nuchase` command-line tool: each subcommand is
//! a pure function from a parsed program to a report string, so the logic
//! is unit-testable without process spawning.
//!
//! Subcommands:
//!
//! * `decide`  — non-uniform + uniform termination verdicts, class info;
//! * `run`     — run the (budgeted) semi-oblivious chase, print stats or
//!   the full materialization;
//! * `explain` — dependency-graph diagnosis: critical predicates, the
//!   compiled UCQ `Q_Σ`, and which database facts support divergence;
//! * `bounds`  — the paper's depth/size bounds for the program;
//! * `query`   — certain answers of a conjunctive query over the
//!   materialization;
//! * `profile` — run with full telemetry: per-rule attribution table,
//!   memory accounting, and exportable JSONL / chrome://tracing traces;
//! * `serve`   — the multi-tenant serving facade: read line-delimited
//!   chase requests (stdin or a unix socket), submit each as a
//!   non-blocking job on one shared engine, answer in request order.
//!   See [`serve_batch`] for the request/response protocol.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;

use nuchase::bounds::{chase_size_bound, depth_bound, f_class};
use nuchase::ucq::UcqDecider;
use nuchase_engine::{
    ChaseBudget, ChaseOutcome, ChaseVariant, Engine, PreparedProgram, TelemetryLevel,
    TelemetrySnapshot,
};
use nuchase_model::{DisplayWith, Program, TgdClass};

/// Renders every TGD of `program` through its symbol table, in rule-index
/// order (the engine numbers rules by their position in the set, so these
/// label [`TelemetrySnapshot::rules`] directly).
fn rule_labels(program: &Program) -> Vec<String> {
    program
        .tgds
        .iter()
        .map(|(_, tgd)| format!("{}", tgd.display(&program.symbols)))
        .collect()
}

/// Writes `snap` as JSONL to `path` and reports the line count.
fn write_trace_file(
    snap: &TelemetrySnapshot,
    path: &str,
    out: &mut String,
) -> Result<(), CliError> {
    let mut buf = Vec::new();
    snap.write_jsonl(&mut buf)?;
    let lines = buf.iter().filter(|&&b| b == b'\n').count();
    std::fs::write(path, buf)?;
    let _ = writeln!(out, "trace: wrote {path} ({lines} JSONL records)");
    Ok(())
}

/// Errors surfaced to the CLI user.
pub type CliError = Box<dyn std::error::Error>;

/// Renders a run's outcome for the report, or converts a failed run into
/// the typed error the binary maps to a distinct exit code (see
/// `main.rs`): injected faults, worker panics, and poisoned sessions
/// abort the report; every other outcome is a line of text.
fn outcome_line(outcome: &ChaseOutcome, max_atoms: usize) -> Result<String, CliError> {
    Ok(match outcome {
        ChaseOutcome::Terminated => "terminated".to_string(),
        ChaseOutcome::MemoryLimit => {
            "memory limit reached (resumable: raise NUCHASE_MEMORY_LIMIT_BYTES)".to_string()
        }
        ChaseOutcome::Failed(err) => return Err(Box::new(err.clone())),
        _ => format!("budget exhausted at {max_atoms} atoms (diverging or under-budgeted)"),
    })
}

/// `nuchase decide`: termination verdicts.
pub fn cmd_decide(program: &mut Program) -> Result<String, CliError> {
    let mut out = String::new();
    let class = program.tgds.classify();
    let _ = writeln!(
        out,
        "class: {} ({} TGDs, {} predicates, arity ≤ {}, |D| = {})",
        class.short_name(),
        program.tgds.len(),
        program.tgds.schema_preds().len(),
        program.tgds.max_arity(),
        program.database.len()
    );
    // Exact uniform decision via the critical database when the class
    // permits; weak acyclicity is only sound-for-SL.
    let uniform = nuchase::uniform(&program.tgds, &mut program.symbols)
        .map(|v| v.to_string())
        .unwrap_or_else(|_| "undecidable (general TGDs)".into());
    let _ = writeln!(out, "uniform (all databases): {uniform}");
    match nuchase::decide(&program.database, &program.tgds, &mut program.symbols) {
        Ok(v) => {
            let _ = writeln!(out, "non-uniform (this database): {v}");
            if v {
                let bound = chase_size_bound(program.database.len(), &program.tgds, class);
                let _ = writeln!(
                    out,
                    "guaranteed size: |chase(D, Σ)| ≤ {}",
                    match bound.exact {
                        Some(b) if b < 1 << 40 => b.to_string(),
                        _ => format!("2^{:.1}", bound.log2),
                    }
                );
            }
        }
        Err(e) => {
            let _ = writeln!(out, "non-uniform (this database): {e}");
        }
    }
    Ok(out)
}

/// The `engine:` report line: the lane count, the wall in ms (µs below
/// 1 ms, so a tiny chase does not read as zero), and the phase split.
fn engine_line(threads: usize, stats: &nuchase_engine::ChaseStats) -> String {
    let wall = if stats.wall_secs >= 1e-3 {
        format!("{:.3} ms", stats.wall_secs * 1e3)
    } else {
        format!("{:.1} µs", stats.wall_secs * 1e6)
    };
    format!(
        "engine: threads {threads}, wall: {wall} ({})",
        stats.phase_summary()
    )
}

/// `nuchase run`: run the chase with a budget; optionally print atoms.
/// `threads` is the engine's lane count: `n ≥ 2` lets `n − 1` scheduler
/// threads help drain wide rounds (results are identical either way).
/// `trace` names a JSONL file to receive a counters-level telemetry
/// trace of the run (telemetry stays off when `None`).
pub fn cmd_run(
    program: &Program,
    max_atoms: usize,
    print_atoms: bool,
    threads: usize,
    trace: Option<&str>,
) -> Result<String, CliError> {
    // The prepared-program flow: compile Σ once, build the engine, run a
    // session. A long-lived server would keep `prepared` and `engine`
    // across requests; one CLI invocation pays the compile exactly once
    // either way.
    let prepared = PreparedProgram::compile(program.tgds.clone());
    let engine = Engine::builder()
        .variant(ChaseVariant::SemiOblivious)
        .budget(ChaseBudget::atoms(max_atoms))
        .threads(threads)
        .telemetry(if trace.is_some() {
            TelemetryLevel::Counters
        } else {
            TelemetryLevel::Off
        })
        .build();
    let mut session = engine.session(&prepared, &program.database);
    session.run();
    let mut out = String::new();
    let _ = writeln!(out, "program: {}", prepared.summary());
    let result = session.finish();
    let _ = writeln!(
        out,
        "outcome: {}",
        outcome_line(&result.outcome, max_atoms)?
    );
    let _ = writeln!(
        out,
        "atoms: {} ({} derived), nulls: {}, maxdepth: {}, rounds: {}, triggers fired: {}",
        result.instance.len(),
        result.stats.atoms_created,
        result.stats.nulls_created,
        result.max_depth(),
        result.stats.rounds,
        result.stats.triggers_fired,
    );
    let _ = writeln!(out, "{}", engine_line(threads, &result.stats));
    if let Some(path) = trace {
        let mut snap = *result
            .telemetry
            .ok_or("telemetry missing from traced run")?;
        snap.rule_labels = rule_labels(program);
        write_trace_file(&snap, path, &mut out)?;
    }
    if print_atoms {
        let _ = write!(out, "{}", result.instance.display(&program.symbols));
    }
    Ok(out)
}

/// `nuchase profile`: run the chase at [`TelemetryLevel::Full`] and print
/// where the run went — a per-rule attribution table (top `rules_top` by
/// triggers considered), the recorded round paths, and the memory
/// accounting gauges. `trace` / `chrome` name optional JSONL and
/// chrome://tracing output files.
pub fn cmd_profile(
    program: &Program,
    max_atoms: usize,
    threads: usize,
    rules_top: usize,
    trace: Option<&str>,
    chrome: Option<&str>,
) -> Result<String, CliError> {
    let prepared = PreparedProgram::compile(program.tgds.clone());
    let engine = Engine::builder()
        .variant(ChaseVariant::SemiOblivious)
        .budget(ChaseBudget::atoms(max_atoms))
        .threads(threads)
        .telemetry(TelemetryLevel::Full)
        .build();
    let mut session = engine.session(&prepared, &program.database);
    session.run();
    let mut result = session.finish();
    // Fail before touching telemetry: a failed run may legitimately
    // carry none (the run unwound before the snapshot).
    let outcome_text = outcome_line(&result.outcome, max_atoms)?;
    let mut snap = *result
        .telemetry
        .take()
        .ok_or("telemetry missing from profile run")?;
    snap.rule_labels = rule_labels(program);
    let stats = &result.stats;

    // The attribution invariant: per-rule trigger counts partition the
    // aggregate, on every engine path. A mismatch is an engine bug.
    let attributed: usize = snap.rules.iter().map(|r| r.considered).sum();
    if attributed != stats.triggers_considered {
        return Err(format!(
            "telemetry attribution broken: per-rule considered sums to {attributed}, \
             aggregate says {}",
            stats.triggers_considered
        )
        .into());
    }

    let mut out = String::new();
    let _ = writeln!(out, "program: {}", prepared.summary());
    let _ = writeln!(out, "outcome: {outcome_text}");
    let _ = writeln!(
        out,
        "atoms: {} ({} derived), nulls: {}, rounds: {}, triggers: {} considered / {} fired",
        result.instance.len(),
        stats.atoms_created,
        stats.nulls_created,
        stats.rounds,
        stats.triggers_considered,
        stats.triggers_fired,
    );
    let _ = writeln!(out, "{}", engine_line(threads, stats));
    let _ = writeln!(
        out,
        "memory: instance {} B peak (table load {:.2}, {} index spills), nulls {} B peak",
        stats.peak_instance_bytes,
        stats.instance_table_load,
        stats.index_spill_count,
        stats.peak_null_bytes,
    );
    let _ = writeln!(
        out,
        "probes: {} batched, prefetch queue depth {}",
        stats.batched_probes, stats.prefetch_queue_depth,
    );
    if stats.sched_wait_secs > 0.0 || stats.sched_occupancy > 0.0 {
        let _ = writeln!(
            out,
            "sched: {:.3} ms waiting on the shared pool, peak occupancy {:.0}%",
            stats.sched_wait_secs * 1e3,
            stats.sched_occupancy * 100.0,
        );
    }
    if stats.faults_injected + stats.spill_fallbacks + stats.retries > 0 {
        let _ = writeln!(
            out,
            "faults: {} injected, {} spill fallbacks, {} retries",
            stats.faults_injected, stats.spill_fallbacks, stats.retries,
        );
    }

    // Per-rule table, heaviest enumerators first.
    let mut order: Vec<usize> = (0..snap.rules.len()).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (&snap.rules[a], &snap.rules[b]);
        rb.considered
            .cmp(&ra.considered)
            .then(rb.fired.cmp(&ra.fired))
            .then(a.cmp(&b))
    });
    let shown = order.len().min(rules_top.max(1));
    let _ = writeln!(
        out,
        "\nper-rule attribution (top {shown} of {} by triggers considered):",
        snap.rules.len()
    );
    let _ = writeln!(
        out,
        "  {:>10} {:>10} {:>10} {:>10} {:>8} {:>11}  rule",
        "considered", "deduped", "fired", "atoms", "nulls", "sampled"
    );
    for &i in order.iter().take(shown) {
        let r = &snap.rules[i];
        let _ = writeln!(
            out,
            "  {:>10} {:>10} {:>10} {:>10} {:>8} {:>9.1}ms  σ{}: {}",
            r.considered,
            r.deduped,
            r.fired,
            r.atoms,
            r.nulls,
            r.sampled_secs * 1e3,
            i,
            snap.rule_label(i),
        );
    }
    if shown < order.len() {
        let rest: usize = order[shown..]
            .iter()
            .map(|&i| snap.rules[i].considered)
            .sum();
        let _ = writeln!(
            out,
            "  … {} more rule(s), {rest} triggers considered",
            order.len() - shown
        );
    }

    // Round ring summary: which apply paths the run took.
    let mut by_path: Vec<(&str, usize)> = Vec::new();
    for ev in &snap.rounds {
        match by_path.iter_mut().find(|(n, _)| *n == ev.path.name()) {
            Some((_, c)) => *c += 1,
            None => by_path.push((ev.path.name(), 1)),
        }
    }
    let paths = by_path
        .iter()
        .map(|(n, c)| format!("{c} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "rounds recorded: {} of {} seen (stride {}): {}",
        snap.rounds.len(),
        snap.rounds_seen,
        snap.stride,
        if paths.is_empty() { "none" } else { &paths },
    );

    if let Some(path) = trace {
        write_trace_file(&snap, path, &mut out)?;
    }
    if let Some(path) = chrome {
        let mut buf = Vec::new();
        snap.write_chrome_trace(&mut buf)?;
        std::fs::write(path, buf)?;
        let _ = writeln!(out, "trace: wrote {path} (chrome://tracing span dump)");
    }
    Ok(out)
}

/// `nuchase serve`: the multi-tenant serving facade.
///
/// Compiles the program once, builds one shared [`Engine`], then drives
/// [`serve_batch`] over stdin/stdout — or, with `socket`, binds a unix
/// listener at that path and serves one connection at a time (each
/// connection is its own request batch; the engine, its scheduler
/// threads, and the compiled program persist across connections).
pub fn cmd_serve(
    program: &mut Program,
    max_atoms: usize,
    threads: usize,
    socket: Option<&str>,
) -> Result<String, CliError> {
    let prepared = PreparedProgram::compile(program.tgds.clone());
    let engine = Engine::builder()
        .variant(ChaseVariant::SemiOblivious)
        .budget(ChaseBudget::atoms(max_atoms))
        .threads(threads)
        .build();
    match socket {
        None => {
            serve_batch(
                program,
                &engine,
                &prepared,
                std::io::stdin().lock(),
                &mut std::io::stdout(),
            )?;
            Ok(String::new())
        }
        Some(path) => {
            // A stale socket file from a dead server refuses the bind,
            // so clear it — but only a *dead socket*: a live listener
            // must not have its address silently stolen (its clients
            // would start failing with no error on either server), and
            // an unrelated file mistakenly passed as --socket must not
            // be deleted.
            match std::fs::metadata(path) {
                Ok(meta) => {
                    use std::os::unix::fs::FileTypeExt as _;
                    if !meta.file_type().is_socket() {
                        return Err(format!(
                            "--socket {path}: refusing to replace an existing non-socket file"
                        )
                        .into());
                    }
                    if std::os::unix::net::UnixStream::connect(path).is_ok() {
                        return Err(format!(
                            "--socket {path}: another server is already listening there"
                        )
                        .into());
                    }
                    std::fs::remove_file(path)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
            let listener = std::os::unix::net::UnixListener::bind(path)?;
            eprintln!("nuchase: serving on {path} (unix socket, one connection at a time)");
            loop {
                let (stream, _) = listener.accept()?;
                let reader = std::io::BufReader::new(stream.try_clone()?);
                let mut writer = stream;
                // A failed batch (I/O error on a dropped connection)
                // ends that connection only; the server keeps accepting.
                if let Err(e) = serve_batch(program, &engine, &prepared, reader, &mut writer) {
                    eprintln!("nuchase: connection error: {e}");
                }
            }
        }
    }
}

/// One request read off the input: a submitted chase, with the µs its
/// payload took to parse, ingest and submit, or a request that failed
/// before it could be submitted. Answered in the order read.
enum Pending {
    Job(String, nuchase_engine::JobHandle, u64),
    Error(String, String),
}

/// Drives one line-delimited `serve` request batch and writes responses
/// (this is the whole wire protocol):
///
/// **Requests** — one per line, answered in request order:
///
/// ```text
/// <id> <facts>        chase the program's database plus these facts
///                     ('.'-terminated atoms, e.g. `r(a, b). s(b).`)
/// <id> @<path>        same, facts loaded from a file
/// <id>                chase the program's database alone
/// ```
///
/// Blank lines and `#` comments are skipped. `<id>` is any
/// whitespace-free token the client uses to correlate responses.
///
/// **Responses** — one per request:
///
/// ```text
/// <id> ok outcome=<name> atoms=<total> derived=<n> nulls=<n> rounds=<n> wall_us=<n> wait_us=<n> parse_us=<n>
/// <id> error <message>
/// ```
///
/// `parse_us` is the time the request's payload took to parse, to load
/// into its database and to submit; `wait_us` the time its chase's
/// slices waited on the shared scheduler; `wall_us` the chase's own
/// wall time. A response is written the moment its chase ends, so the
/// three account for a request's time from its line being read to its
/// response being written, less any wait behind an earlier request
/// still running. After EOF a trailing summary line is written:
///
/// ```text
/// served <n> ok <n> error <n>
/// ```
///
/// Every request is submitted as a non-blocking job
/// ([`Engine::submit`]) the moment its line is read, so many tenants'
/// chases are in flight at once. Responses keep request order but never
/// wait for input: each is written as soon as its chase has ended and
/// every earlier request has been answered, so a client that waits for
/// each answer before it sends its next request is served. The first
/// request is answered before the second line is read. From the second
/// on, a scoped writer thread answers while the calling thread reads
/// and submits. The writer blocks in [`JobHandle::wait`], which runs
/// queued chases while it waits, so the writer is one of the engine's
/// lanes rather than an idle thread. A one-request batch starts no
/// thread.
///
/// A request that fails — unparsable facts, a failed chase — answers
/// `error` and poisons nothing: the engine and all other requests
/// proceed. A failed write ends the batch with that error; the reader
/// stops before submitting another request. A failed read ends it once
/// the requests already read are answered. Returns `(ok, error)`
/// counts.
///
/// [`JobHandle::wait`]: nuchase_engine::JobHandle::wait
pub fn serve_batch<R, W>(
    program: &mut Program,
    engine: &Engine,
    prepared: &PreparedProgram,
    input: R,
    out: &mut W,
) -> Result<(usize, usize), CliError>
where
    R: std::io::BufRead,
    W: std::io::Write + Send,
{
    let mut lines = input.lines();
    let mut next_request = || -> std::io::Result<Option<Pending>> {
        for line in lines.by_ref() {
            let line = line?;
            let line = line.trim();
            if !line.is_empty() && !line.starts_with('#') {
                return Ok(Some(submit_request(program, engine, prepared, line)));
            }
        }
        Ok(None)
    };
    let mut responder = Responder {
        out,
        line: String::new(),
        ok: 0,
        errors: 0,
    };
    if let Some(first) = next_request()? {
        responder.answer(first)?;
        if let Some(second) = next_request()? {
            responder = std::thread::scope(|scope| {
                let (queue, requests) = std::sync::mpsc::channel();
                let writer = scope.spawn(move || {
                    for pending in requests {
                        responder.answer(pending)?;
                    }
                    Ok::<_, std::io::Error>(responder)
                });
                let mut read = Ok(());
                let mut request = Some(second);
                while let Some(pending) = request {
                    // A closed queue means the writer failed; its error
                    // is returned below.
                    if queue.send(pending).is_err() {
                        break;
                    }
                    match next_request() {
                        Ok(next) => request = next,
                        Err(e) => {
                            read = Err(e);
                            break;
                        }
                    }
                }
                drop(queue);
                let responder = writer
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
                read.map(|()| responder)
            })?;
        }
    }
    let Responder {
        out, ok, errors, ..
    } = responder;
    writeln!(out, "served {} ok {ok} error {errors}", ok + errors)?;
    out.flush()?;
    Ok((ok, errors))
}

/// Splits one request line into its id and payload, builds the payload's
/// database and submits its chase.
fn submit_request(
    program: &mut Program,
    engine: &Engine,
    prepared: &PreparedProgram,
    line: &str,
) -> Pending {
    let (id, payload) = match line.split_once(char::is_whitespace) {
        Some((id, rest)) => (id.to_string(), rest.trim()),
        None => (line.to_string(), ""),
    };
    let started = std::time::Instant::now();
    match request_database(program, payload) {
        Ok(db) => {
            let handle = engine.submit_owned(prepared, db);
            Pending::Job(id, handle, started.elapsed().as_micros() as u64)
        }
        Err(e) => Pending::Error(id, e.to_string()),
    }
}

/// Builds one request's database: the program's base facts plus the
/// payload's atoms (inline text, or `@path` to read a file).
fn request_database(
    program: &mut Program,
    payload: &str,
) -> Result<nuchase_model::Instance, CliError> {
    let mut db = program.database.clone();
    if payload.is_empty() {
        return Ok(db);
    }
    let text = match payload.strip_prefix('@') {
        Some(path) => std::fs::read_to_string(path)?,
        None => payload.to_string(),
    };
    let extra = nuchase_model::parse_database(&text, &mut program.symbols)?;
    for atom in extra.iter() {
        db.insert_terms(atom.pred, atom.args);
    }
    Ok(db)
}

/// Writes `serve` responses in the order it is handed requests, and
/// counts them.
struct Responder<'a, W> {
    out: &'a mut W,
    /// One response line, formatted whole so it goes out in one write.
    line: String,
    ok: usize,
    errors: usize,
}

impl<W: std::io::Write> Responder<'_, W> {
    /// Waits for `pending`'s chase, if it has one, and writes its
    /// response.
    fn answer(&mut self, pending: Pending) -> std::io::Result<()> {
        match pending {
            Pending::Error(id, msg) => self.error(&id, &msg),
            Pending::Job(id, handle, parse_us) => {
                let result = handle.wait();
                match &result.outcome {
                    ChaseOutcome::Failed(err) => self.error(&id, err),
                    outcome => {
                        self.ok += 1;
                        let s = &result.stats;
                        self.write_line(format_args!(
                            "{id} ok outcome={} atoms={} derived={} nulls={} rounds={} \
                             wall_us={} wait_us={} parse_us={parse_us}",
                            outcome.name(),
                            result.instance.len(),
                            s.atoms_created,
                            s.nulls_created,
                            s.rounds,
                            (s.wall_secs * 1e6) as u64,
                            (s.sched_wait_secs * 1e6) as u64,
                        ))
                    }
                }
            }
        }
    }

    fn error(&mut self, id: &str, msg: &dyn std::fmt::Display) -> std::io::Result<()> {
        self.errors += 1;
        self.write_line(format_args!("{id} error {msg}"))
    }

    /// Writes `line` and its newline in one write, then flushes.
    fn write_line(&mut self, line: std::fmt::Arguments<'_>) -> std::io::Result<()> {
        self.line.clear();
        let _ = writeln!(self.line, "{line}");
        self.out.write_all(self.line.as_bytes())?;
        self.out.flush()
    }
}

/// `nuchase explain`: diagnosis of why (non-)termination holds.
pub fn cmd_explain(program: &mut Program) -> Result<String, CliError> {
    let mut out = String::new();
    let graph = nuchase::DepGraph::new(&program.tgds);
    let _ = writeln!(
        out,
        "dependency graph: {} positions, {} edges ({} special)",
        graph.positions().len(),
        graph.edges().len(),
        graph.special_edges().count()
    );
    let bad = nuchase::weak_acyclicity::bad_nodes(&graph);
    if bad.is_empty() {
        let _ = writeln!(
            out,
            "no cycle with a special edge: Σ is weakly acyclic — terminates on every database"
        );
        return Ok(out);
    }
    let mut bad_positions: Vec<String> = bad
        .iter()
        .map(|&n| graph.positions()[n].display(&program.symbols))
        .collect();
    bad_positions.sort();
    let _ = writeln!(
        out,
        "positions on special cycles: {}",
        bad_positions.join(", ")
    );

    let critical = nuchase::critical_preds(&graph);
    let mut names: Vec<&str> = critical
        .iter()
        .map(|&p| program.symbols.pred_name(p))
        .collect();
    names.sort_unstable();
    let _ = writeln!(out, "critical predicates P_Σ: {}", names.join(", "));

    // Which database facts are supporters?
    let mut supporters: Vec<String> = program
        .database
        .iter()
        .filter(|a| critical.contains(&a.pred))
        .map(|a| format!("{}", a.display(&program.symbols)))
        .collect();
    supporters.sort();
    supporters.dedup();
    if supporters.is_empty() {
        let _ = writeln!(
            out,
            "no database fact supports the cycles: the chase of THIS database terminates"
        );
    } else {
        let _ = writeln!(out, "supporting facts: {}", supporters.join(", "));
    }

    // The compiled UCQ, when the class permits.
    match program.tgds.classify() {
        TgdClass::SimpleLinear => {
            let d = UcqDecider::for_simple_linear(&program.tgds, &program.symbols)?;
            let _ = writeln!(out, "Q_Σ = {}", d.ucq().display(&program.symbols));
        }
        TgdClass::Linear => {
            let d = UcqDecider::for_linear(&program.tgds, &mut program.symbols)?;
            let _ = writeln!(out, "Q_Σ = {}", d.ucq().display(&program.symbols));
        }
        _ => {}
    }
    Ok(out)
}

/// `nuchase bounds`: the paper's depth and size bounds for the program.
pub fn cmd_bounds(program: &Program) -> Result<String, CliError> {
    let mut out = String::new();
    let class = program.tgds.classify();
    let _ = writeln!(
        out,
        "‖Σ‖ = {}, |sch(Σ)| = {}, ar(Σ) = {}",
        program.tgds.norm(),
        program.tgds.schema_preds().len(),
        program.tgds.max_arity()
    );
    for c in [TgdClass::SimpleLinear, TgdClass::Linear, TgdClass::Guarded] {
        if class > c {
            continue;
        }
        let d = depth_bound(&program.tgds, c);
        let f = f_class(&program.tgds, c);
        let fmt = |b: &nuchase::Bound| match b.exact {
            Some(v) if v < 1 << 40 => v.to_string(),
            _ => format!("2^{:.1}", b.log2),
        };
        let _ = writeln!(
            out,
            "as {:>2}: d_C(Σ) = {}, f_C(Σ) = {}, |D|·f_C(Σ) = {}",
            c.short_name(),
            fmt(&d),
            fmt(&f),
            fmt(&f.scale(program.database.len() as u128)),
        );
    }
    if class == TgdClass::General {
        let _ = writeln!(
            out,
            "Σ is not guarded: no class bound applies (ChTrm is undecidable, Prop 4.2)"
        );
    }
    Ok(out)
}

/// `nuchase query`: certain answers of a Boolean/labelled CQ given as a
/// single rule body, e.g. `"person(X), worksfor(X, D)"`, with answer
/// variables listed after `?`, e.g. `"person(X), worksfor(X, D) ? X"`.
pub fn cmd_query(
    program: &mut Program,
    query_text: &str,
    max_atoms: usize,
) -> Result<String, CliError> {
    let (body_text, answers_text) = match query_text.split_once('?') {
        Some((b, a)) => (b.trim(), a.trim()),
        None => (query_text.trim(), ""),
    };
    // Parse the body by wrapping it as a rule "body -> qtmp."
    let (_, tgds) = nuchase_model::parse_into(
        &format!("{body_text} -> nuchase_query_marker.\n"),
        &mut program.symbols,
    )?;
    let tgd = tgds.iter().next().expect("one rule").1;
    let answer_names: Vec<&str> = answers_text
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    // Rule normalization assigns dense variable ids in first-occurrence
    // order, so the k-th distinct variable name of the body text has
    // dense id k — recover the answer ids by scanning tokens.
    let mut seen: Vec<String> = Vec::new();
    for token in body_text.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '?')) {
        if nuchase_model::parser::is_variable_token(token) && !seen.iter().any(|s| s == token) {
            seen.push(token.to_string());
        }
    }
    let answer_vars: Vec<nuchase_model::VarId> = answer_names
        .iter()
        .map(|name| {
            let idx = seen
                .iter()
                .position(|s| s == name)
                .ok_or_else(|| format!("answer variable {name} does not occur in the query"))?;
            Ok::<_, CliError>(nuchase_model::VarId(idx as u32))
        })
        .collect::<Result<_, _>>()?;
    let q = nuchase_model::Cq::with_answers(tgd.body().to_vec(), &answer_vars);

    // Materialize (or refuse).
    let mut out = String::new();
    match nuchase::decide(&program.database, &program.tgds, &mut program.symbols) {
        Ok(true) | Err(_) => {
            let prepared = PreparedProgram::compile(program.tgds.clone());
            let result = Engine::builder()
                .budget(ChaseBudget::atoms(max_atoms))
                .build()
                .chase(&prepared, &program.database);
            if let ChaseOutcome::Failed(err) = &result.outcome {
                return Err(Box::new(err.clone()));
            }
            if !result.terminated() {
                let _ = writeln!(out, "chase did not terminate within {max_atoms} atoms");
                return Ok(out);
            }
            let mut answers: Vec<String> = q
                .certain_answers_in(&result.instance)
                .into_iter()
                .map(|tuple| {
                    let cells: Vec<String> = tuple
                        .iter()
                        .map(|t| format!("{}", t.display(&program.symbols)))
                        .collect();
                    format!("({})", cells.join(", "))
                })
                .collect();
            answers.sort();
            let _ = writeln!(out, "{} certain answer(s):", answers.len());
            for a in answers {
                let _ = writeln!(out, "  {a}");
            }
        }
        Ok(false) => {
            let _ = writeln!(
                out,
                "the chase of this database diverges: materialization not applicable"
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuchase_model::parse_program;
    use std::io::{self, Read, Write};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    fn program(text: &str) -> Program {
        parse_program(text).unwrap()
    }

    #[test]
    fn decide_reports_both_verdicts() {
        let mut p = program("q(a).\nr(X, Y) -> r(Y, Z).");
        let out = cmd_decide(&mut p).unwrap();
        assert!(out.contains("uniform (all databases): false"));
        assert!(out.contains("non-uniform (this database): true"));
        assert!(out.contains("guaranteed size"));
    }

    #[test]
    fn run_reports_stats() {
        let p = program("r(a, b).\nr(X, Y) -> s(X, Z).");
        let out = cmd_run(&p, 1000, true, 0, None).unwrap();
        assert!(out.contains("terminated"));
        assert!(out.contains("s(a, _:n0)"));
        assert!(out.contains("program: 1 rules"), "{out}");
        assert!(out.contains("engine: threads 0"), "{out}");
        assert!(out.contains("enumerate"), "{out}");
        // A sub-millisecond chase prints its wall in µs, not as zero.
        let line = out.lines().find(|l| l.starts_with("engine:")).unwrap();
        let wall = line.split("wall: ").nth(1).unwrap();
        let (value, unit) = wall.split_once(' ').unwrap();
        assert!(value.parse::<f64>().unwrap() > 0.0, "{line}");
        assert!(unit.starts_with("ms") || unit.starts_with("µs"), "{line}");
    }

    #[test]
    fn run_parallel_agrees_with_sequential() {
        let p = program("e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).");
        let seq = cmd_run(&p, 10_000, true, 0, None).unwrap();
        let par = cmd_run(&p, 10_000, true, 3, None).unwrap();
        assert!(par.contains("engine: threads 3"), "{par}");
        // Identical materialization, line for line, after the engine line.
        let atoms = |s: &str| {
            s.lines()
                .filter(|l| l.starts_with("e("))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(atoms(&seq), atoms(&par));
        assert!(!atoms(&seq).is_empty());
    }

    #[test]
    fn explain_lists_critical_predicates() {
        let mut p = program("r(a, b).\nr(X, Y) -> r(Y, Z).");
        let out = cmd_explain(&mut p).unwrap();
        assert!(out.contains("critical predicates P_Σ: r"), "{out}");
        assert!(out.contains("supporting facts: r(a, b)"), "{out}");
        assert!(out.contains("Q_Σ"), "{out}");
    }

    #[test]
    fn explain_weakly_acyclic() {
        let mut p = program("r(X, Y) -> s(X, Z).");
        let out = cmd_explain(&mut p).unwrap();
        assert!(out.contains("weakly acyclic"), "{out}");
    }

    #[test]
    fn bounds_show_class_ladder() {
        let p = program("r(X, Y) -> r(Y, Z).");
        let out = cmd_bounds(&p).unwrap();
        assert!(out.contains("as SL"), "{out}");
        assert!(out.contains("as  L") || out.contains("as L"), "{out}");
        assert!(out.contains("as  G") || out.contains("as G"), "{out}");
    }

    #[test]
    fn query_returns_certain_answers() {
        let mut p =
            program("parent(alice, bob).\nparent(X, Y) -> person(Y).\nperson(X) -> named(X, N).");
        let out = cmd_query(&mut p, "person(X) ? X", 10_000).unwrap();
        assert!(out.contains("1 certain answer"), "{out}");
        assert!(out.contains("(bob)"), "{out}");
        // Null-valued tuples are not certain.
        let out2 = cmd_query(&mut p, "named(X, N) ? N", 10_000).unwrap();
        assert!(out2.contains("0 certain answer"), "{out2}");
    }

    #[test]
    fn profile_attributes_triggers_per_rule() {
        let p = program(
            "e(a, b).\ne(b, c).\ne(c, d).\n\
             e(X, Y), e(Y, Z) -> e(X, Z).\n\
             e(X, Y) -> n(X, W).",
        );
        let out = cmd_profile(&p, 10_000, 0, 10, None, None).unwrap();
        assert!(out.contains("per-rule attribution"), "{out}");
        assert!(out.contains("σ0:"), "{out}");
        assert!(out.contains("σ1:"), "{out}");
        // Labels come from the program's symbol table (normalized vars).
        assert!(out.contains("e(X0, X1), e(X1, X2) -> e(X0, X2)"), "{out}");
        assert!(out.contains("memory: instance"), "{out}");
        assert!(out.contains("rounds recorded:"), "{out}");
    }

    #[test]
    fn profile_writes_parseable_traces() {
        let dir = std::env::temp_dir().join("nuchase_cli_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("run.jsonl");
        let chrome = dir.join("run.chrome.json");
        let p = program("r(a, b).\nr(X, Y) -> s(Y, Z).\ns(X, Y) -> r(Y, X).");
        let out = cmd_profile(
            &p,
            500,
            0,
            5,
            Some(jsonl.to_str().unwrap()),
            Some(chrome.to_str().unwrap()),
        )
        .unwrap();
        assert!(out.contains("JSONL records"), "{out}");
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(text.lines().count() >= 3, "meta + memory + rules: {text}");
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
        assert!(text.contains("\"type\":\"meta\""));
        assert!(text.contains("\"type\":\"memory\""));
        assert!(text.contains("\"type\":\"rule\""));
        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        let trimmed = chrome_text.trim();
        assert!(
            trimmed.starts_with('[') && trimmed.ends_with(']'),
            "{trimmed}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_trace_writes_jsonl() {
        let dir = std::env::temp_dir().join("nuchase_cli_run_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("trace.jsonl");
        let p = program("r(a, b).\nr(X, Y) -> s(X, Z).");
        let out = cmd_run(&p, 1000, false, 0, Some(jsonl.to_str().unwrap())).unwrap();
        assert!(out.contains("trace: wrote"), "{out}");
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(text.contains("\"type\":\"meta\""), "{text}");
        assert!(text.contains("\"type\":\"rule\""), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_parallel_matches_sequential_attribution() {
        let p = program("e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).");
        let seq = cmd_profile(&p, 10_000, 0, 5, None, None).unwrap();
        let par = cmd_profile(&p, 10_000, 2, 5, None, None).unwrap();
        // Counter columns agree; only timings may differ. Compare the
        // attribution rows with the sampled-time column stripped.
        let counters = |s: &str| {
            s.lines()
                .filter(|l| l.contains("σ0:"))
                .map(|l| {
                    l.split_whitespace()
                        .take(5)
                        .map(String::from)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(counters(&seq), counters(&par), "seq:\n{seq}\npar:\n{par}");
        assert!(!counters(&seq).is_empty());
    }

    #[test]
    fn failed_outcomes_map_to_typed_errors() {
        use nuchase_engine::ChaseError;
        let err = outcome_line(&ChaseOutcome::Failed(ChaseError::Poisoned), 10).unwrap_err();
        // The binary downcasts to pick the exit code — the type must
        // survive the boxing.
        assert!(err.downcast_ref::<ChaseError>().is_some());
        let memory = outcome_line(&ChaseOutcome::MemoryLimit, 10).unwrap();
        assert!(memory.contains("memory limit"), "{memory}");
        let budget = outcome_line(&ChaseOutcome::AtomLimit, 10).unwrap();
        assert!(budget.contains("budget exhausted"), "{budget}");
    }

    /// Runs one `serve` batch over in-memory pipes and returns
    /// (response text, ok, error).
    fn serve_text(program_text: &str, requests: &str, threads: usize) -> (String, usize, usize) {
        let mut p = program(program_text);
        let prepared = PreparedProgram::compile(p.tgds.clone());
        let engine = Engine::builder()
            .budget(ChaseBudget::atoms(100_000))
            .threads(threads)
            .build();
        let mut out = Vec::new();
        let (ok, errors) =
            serve_batch(&mut p, &engine, &prepared, requests.as_bytes(), &mut out).unwrap();
        (String::from_utf8(out).unwrap(), ok, errors)
    }

    #[test]
    fn serve_answers_in_request_order() {
        let (out, ok, errors) = serve_text(
            "e(a, b).\ne(X, Y), e(Y, Z) -> e(X, Z).",
            "# a comment, then a blank line\n\n\
             t1 e(b, c). e(c, d).\n\
             t2 e(b, q).\n\
             t3\n",
            2,
        );
        assert_eq!((ok, errors), (3, 0), "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].starts_with("t1 ok outcome=terminated"), "{out}");
        assert!(lines[1].starts_with("t2 ok outcome=terminated"), "{out}");
        assert!(lines[2].starts_with("t3 ok outcome=terminated"), "{out}");
        assert_eq!(lines[3], "served 3 ok 3 error 0", "{out}");
        // t1 adds a 3-atom chain to e(a,b): transitive closure of a
        // 4-chain has 6 edges; t3 chases the base database alone.
        assert!(lines[0].contains("atoms=6 derived=3"), "{out}");
        assert!(lines[2].contains("atoms=1 derived=0"), "{out}");
    }

    #[test]
    fn serve_reports_bad_requests_in_band() {
        let (out, ok, errors) = serve_text(
            "e(a, b).\ne(X, Y) -> p(X).",
            "bad e(unclosed\ngood e(b, c).\n",
            0,
        );
        assert_eq!((ok, errors), (1, 1), "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("bad error "), "{out}");
        assert!(lines[1].starts_with("good ok "), "{out}");
        assert_eq!(lines[2], "served 2 ok 1 error 1", "{out}");
    }

    #[test]
    fn serve_matches_solo_chase_results() {
        // The serving path (submitted jobs, shared scheduler) must
        // report the same chase a blocking solo run produces.
        let p = program("e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).");
        let prepared = PreparedProgram::compile(p.tgds.clone());
        let solo = Engine::builder()
            .threads(0)
            .build()
            .chase(&prepared, &p.database);
        let (out, ok, _) = serve_text(
            "e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).",
            "solo\n",
            2,
        );
        assert_eq!(ok, 1);
        assert!(
            out.lines().next().unwrap().contains(&format!(
                "atoms={} derived={}",
                solo.instance.len(),
                solo.stats.atoms_created
            )),
            "serve output {out} vs solo {} atoms",
            solo.instance.len()
        );
        assert!(solo.terminated(), "sanity: solo ran to termination");
    }

    #[test]
    fn serve_keeps_request_order_around_late_errors() {
        // The bad line arrives after the writer thread took over.
        let (out, ok, errors) = serve_text(
            "e(a, b).\ne(X, Y) -> p(X).",
            "t1\nt2 e(b, c).\nbad e(unclosed\nt4 e(c, d).\n",
            2,
        );
        assert_eq!((ok, errors), (3, 1), "{out}");
        let heads: Vec<String> = out
            .lines()
            .map(|l| l.split_whitespace().take(2).collect::<Vec<_>>().join(" "))
            .collect();
        assert_eq!(
            heads,
            ["t1 ok", "t2 ok", "bad error", "t4 ok", "served 4"],
            "{out}"
        );
    }

    #[test]
    fn serve_ok_responses_are_key_value_pairs() {
        let (out, ok, _) = serve_text("e(a, b).\ne(X, Y) -> p(X).", "t1 e(b, c).\n", 0);
        assert_eq!(ok, 1, "{out}");
        let line = out.lines().next().unwrap();
        let fields = line.strip_prefix("t1 ok ").expect(line);
        assert!(fields.starts_with("outcome=terminated "), "{line}");
        let keys: Vec<&str> = fields
            .split_whitespace()
            .map(|kv| kv.split_once('=').expect(kv).0)
            .collect();
        assert_eq!(
            keys,
            ["outcome", "atoms", "derived", "nulls", "rounds", "wall_us", "wait_us", "parse_us"],
            "{line}"
        );
    }

    /// Everything `serve_batch` has written, shared with the input of a
    /// closed-loop client so it can wait for responses.
    #[derive(Clone, Default)]
    struct Written(Arc<(Mutex<Vec<u8>>, Condvar)>);

    impl Written {
        fn text(&self) -> String {
            String::from_utf8(self.0 .0.lock().unwrap().clone()).unwrap()
        }
    }

    impl Write for Written {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let (bytes, wrote) = &*self.0;
            bytes.lock().unwrap().extend_from_slice(buf);
            wrote.notify_all();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A client that sends request line k + 1 only once it has read k
    /// responses, as one that waits for each answer does. It gives up
    /// after 5 s with [`io::ErrorKind::TimedOut`]. Each `read` sends one
    /// line, so a `BufReader` over it reads no further ahead.
    struct ClosedLoopClient {
        lines: std::vec::IntoIter<String>,
        sent: usize,
        responses: Written,
    }

    impl Read for ClosedLoopClient {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(line) = self.lines.next() else {
                return Ok(0);
            };
            let k = self.sent;
            let newlines = |b: &Vec<u8>| b.iter().filter(|&&c| c == b'\n').count();
            let (bytes, wrote) = &*self.responses.0;
            let (bytes, waited) = wrote
                .wait_timeout_while(bytes.lock().unwrap(), Duration::from_secs(5), |b| {
                    newlines(b) < k
                })
                .unwrap();
            if waited.timed_out() {
                let msg = format!("response {k} never came ({} written)", newlines(&bytes));
                return Err(io::Error::new(io::ErrorKind::TimedOut, msg));
            }
            self.sent += 1;
            buf[..line.len()].copy_from_slice(line.as_bytes());
            Ok(line.len())
        }
    }

    #[test]
    fn serve_answers_a_closed_loop_client() {
        let mut p = program("e(a, b).\ne(X, Y), e(Y, Z) -> e(X, Z).");
        let prepared = PreparedProgram::compile(p.tgds.clone());
        let engine = Engine::builder()
            .budget(ChaseBudget::atoms(100_000))
            .threads(2)
            .build();
        let written = Written::default();
        let input = io::BufReader::new(ClosedLoopClient {
            lines: (0..4)
                .map(|k| format!("t{k} e(b, c{k}).\n"))
                .collect::<Vec<_>>()
                .into_iter(),
            sent: 0,
            responses: written.clone(),
        });
        let served = serve_batch(&mut p, &engine, &prepared, input, &mut written.clone())
            .map_err(|e| e.to_string());
        let out = written.text();
        assert_eq!(served, Ok((4, 0)), "{out}");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "{out}");
        for (k, line) in lines[..4].iter().enumerate() {
            assert!(
                line.starts_with(&format!("t{k} ok outcome=terminated atoms=3 ")),
                "{out}"
            );
        }
        assert_eq!(lines[4], "served 4 ok 4 error 0", "{out}");
    }

    /// Output that takes `lines` lines, then fails every write.
    struct FailingOutput {
        lines: usize,
    }

    impl Write for FailingOutput {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.lines == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "client gone"));
            }
            let newlines = buf.iter().filter(|&&b| b == b'\n').count();
            self.lines = self.lines.saturating_sub(newlines);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// An endless stream of `t` requests that gives up after 5 s.
    struct EndlessRequests(Instant);

    impl Read for EndlessRequests {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.0.elapsed() > Duration::from_secs(5) {
                let msg = "the reader kept reading after its writer failed";
                return Err(io::Error::new(io::ErrorKind::TimedOut, msg));
            }
            buf[..2].copy_from_slice(b"t\n");
            Ok(2)
        }
    }

    #[test]
    fn serve_stops_reading_when_a_write_fails() {
        let mut p = program("e(a, b).\ne(X, Y) -> p(X).");
        let prepared = PreparedProgram::compile(p.tgds.clone());
        let engine = Engine::builder()
            .budget(ChaseBudget::atoms(100_000))
            .threads(2)
            .build();
        let input = io::BufReader::new(EndlessRequests(Instant::now()));
        let err = serve_batch(
            &mut p,
            &engine,
            &prepared,
            input,
            &mut FailingOutput { lines: 2 },
        )
        .unwrap_err();
        let kind = err.downcast_ref::<io::Error>().map(io::Error::kind);
        assert_eq!(kind, Some(io::ErrorKind::BrokenPipe), "{err}");
    }

    #[test]
    fn query_refuses_on_divergence() {
        let mut p = program("r(a, b).\nr(X, Y) -> r(Y, Z).");
        let out = cmd_query(&mut p, "r(X, Y) ? X", 10_000).unwrap();
        assert!(out.contains("diverges"), "{out}");
    }
}
