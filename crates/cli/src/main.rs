//! The `nuchase` command-line tool.
//!
//! ```text
//! nuchase decide  <program>                 termination verdicts + size bound
//! nuchase run     <program> [--atoms N] [--print] [--threads N]
//!                 [--trace out.jsonl]
//! nuchase explain <program>                 critical predicates, Q_Σ, supporters
//! nuchase bounds  <program>                 the paper's d_C / f_C bounds
//! nuchase query   <program> "<body> ? X, Y" certain answers over the chase
//! nuchase profile <program> [data]          full telemetry: per-rule table,
//!                 [--atoms N] [--threads N] [--rules-top N]
//!                 [--trace out.jsonl] [--chrome out.json]
//! nuchase serve   <program> [--threads N] [--atoms N] [--socket path]
//!                 line-delimited chase requests on stdin (or the unix
//!                 socket), answered in request order
//! ```
//!
//! `<program>` is a file in the Datalog± text format (see README), or `-`
//! for stdin. `profile` accepts an optional second file holding extra
//! database facts to chase the program over. Each subcommand accepts
//! exactly the flags and positionals above: anything else is a usage
//! error (exit code 2).

use std::io::Read;

fn read_program(path: &str) -> Result<nuchase_model::Program, nuchase_cli::CliError> {
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        s
    } else {
        std::fs::read_to_string(path)?
    };
    Ok(nuchase_model::parse_program(&text)?)
}

fn usage() -> ! {
    eprintln!(
        "usage: nuchase <decide|run|explain|bounds|query|profile|serve> <program.dlp|-> [args]\n\
         \n\
         decide  — termination verdicts (uniform + this database)\n\
         run     — run the semi-oblivious chase  [--atoms N] [--print] [--threads N]\n\
         \x20         [--trace out.jsonl]\n\
         explain — dependency-graph diagnosis and the compiled UCQ Q_Σ\n\
         bounds  — the paper's depth/size bounds d_C(Σ), f_C(Σ)\n\
         query   — certain answers, e.g.: nuchase query kb.dlp 'person(X) ? X'\n\
         profile — run with full telemetry: per-rule attribution, memory gauges\n\
         \x20         [data.dlp] [--atoms N] [--threads N] [--rules-top N]\n\
         \x20         [--trace out.jsonl] [--chrome out.json]\n\
         serve   — serve line-delimited chase requests: '<id> <facts…>' or\n\
         \x20         '<id> @file' per line on stdin (or --socket path), one\n\
         \x20         '<id> ok|error …' response each, in request order\n\
         \x20         [--atoms N] [--threads N] [--socket path]\n\
         \n\
         --threads N: execution lanes. Every setting runs the same chase;\n\
         N >= 2 adds N - 1 scheduler threads that help drain wide rounds,\n\
         0 (default) or 1 is the calling thread alone, 'auto' all cores.\n\
         Results are identical at every setting; NUCHASE_THREADS sets the default.\n\
         NUCHASE_TELEMETRY=off|counters|full enables telemetry on any run."
    );
    std::process::exit(2);
}

/// What one subcommand accepts after its name: flags taking a value,
/// switches, and at most `positionals` positionals (the program first).
struct Spec {
    values: &'static [&'static str],
    switches: &'static [&'static str],
    positionals: usize,
}

fn spec(cmd: &str) -> Option<Spec> {
    let spec = |values, switches, positionals| Spec {
        values,
        switches,
        positionals,
    };
    Some(match cmd {
        "decide" | "explain" | "bounds" => spec(&[], &[], 1),
        "run" => spec(&["--atoms", "--threads", "--trace"], &["--print"], 1),
        "query" => spec(&[], &[], 2),
        "profile" => spec(
            &["--atoms", "--threads", "--rules-top", "--trace", "--chrome"],
            &[],
            2,
        ),
        "serve" => spec(&["--atoms", "--threads", "--socket"], &[], 1),
        _ => return None,
    })
}

/// A subcommand's arguments, checked against its [`Spec`].
#[derive(Default)]
struct Args {
    positional: Vec<String>,
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

/// Why a command line did not parse.
enum ArgError {
    /// An unknown flag, a missing program, or too many positionals.
    Usage,
    /// A known flag given without its value.
    MissingValue(&'static str),
}

impl Args {
    fn parse(spec: &Spec, tokens: &[String]) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            if let Some(&flag) = spec.values.iter().find(|&&f| f == token) {
                match tokens.next() {
                    Some(v) if !v.starts_with("--") => args.values.push((flag, v.clone())),
                    _ => return Err(ArgError::MissingValue(flag)),
                }
            } else if let Some(&flag) = spec.switches.iter().find(|&&f| f == token) {
                args.switches.push(flag);
            } else if token.starts_with("--") {
                return Err(ArgError::Usage);
            } else {
                args.positional.push(token.clone());
            }
        }
        if args.positional.is_empty() || args.positional.len() > spec.positionals {
            return Err(ArgError::Usage);
        }
        Ok(args)
    }

    /// The value of `--flag <value>`, if given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// A numeric flag's value, or `default` when the flag is absent.
    fn number(&self, flag: &str, default: usize) -> Result<usize, nuchase_cli::CliError> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: expected a number, got '{v}'").into()),
            None => Ok(default),
        }
    }

    /// Resolves the lane count: `--threads N|auto` beats
    /// `NUCHASE_THREADS`, which beats the default (0, the calling thread
    /// alone).
    fn threads(&self) -> Result<usize, nuchase_cli::CliError> {
        let setting = self
            .value("--threads")
            .map(String::from)
            .or_else(|| nuchase_engine::config::env_str("NUCHASE_THREADS"));
        match setting.as_deref() {
            None => Ok(0),
            Some("auto") => Ok(nuchase_engine::auto_threads()),
            Some(s) => s
                .parse::<usize>()
                .map_err(|_| format!("--threads: expected a number or 'auto', got '{s}'").into()),
        }
    }
}

/// Silences the default panic report for injected-fault payloads: the
/// engine catches them and surfaces a typed [`nuchase_engine::ChaseError`],
/// so the backtrace the default hook prints before unwinding is pure
/// noise. Genuine panics keep the full default report.
fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info
            .payload()
            .downcast_ref::<nuchase_engine::fault::InjectedFault>()
            .is_none()
        {
            default(info);
        }
    }));
}

fn main() {
    install_panic_hook();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let cmd = cmd.as_str();
    let Some(spec) = spec(cmd) else { usage() };
    let args = match Args::parse(&spec, rest) {
        Ok(args) => args,
        Err(ArgError::Usage) => usage(),
        Err(ArgError::MissingValue(flag)) => {
            eprintln!("nuchase: {flag} requires a value");
            std::process::exit(1);
        }
    };
    let run = || -> Result<String, nuchase_cli::CliError> {
        let mut program = read_program(&args.positional[0])?;
        match cmd {
            "decide" => nuchase_cli::cmd_decide(&mut program),
            "run" => nuchase_cli::cmd_run(
                &program,
                args.number("--atoms", 1_000_000)?,
                args.switch("--print"),
                args.threads()?,
                args.value("--trace"),
            ),
            "explain" => nuchase_cli::cmd_explain(&mut program),
            "bounds" => nuchase_cli::cmd_bounds(&program),
            "query" => {
                let q = args.positional.get(1).ok_or("query text required")?;
                nuchase_cli::cmd_query(&mut program, q, 1_000_000)
            }
            "profile" => {
                // Optional second positional: a file of extra database
                // facts, parsed into the program's symbol table.
                if let Some(data) = args.positional.get(1) {
                    let text = std::fs::read_to_string(data)?;
                    let extra = nuchase_model::parse_database(&text, &mut program.symbols)?;
                    for atom in extra.iter() {
                        program.database.insert_terms(atom.pred, atom.args);
                    }
                }
                nuchase_cli::cmd_profile(
                    &program,
                    args.number("--atoms", 1_000_000)?,
                    args.threads()?,
                    args.number("--rules-top", 20)?,
                    args.value("--trace"),
                    args.value("--chrome"),
                )
            }
            "serve" => nuchase_cli::cmd_serve(
                &mut program,
                args.number("--atoms", 1_000_000)?,
                args.threads()?,
                args.value("--socket"),
            ),
            _ => usage(),
        }
    };
    match run() {
        Ok(out) => print!("{out}"),
        Err(e) => {
            eprintln!("nuchase: {e}");
            std::process::exit(error_exit_code(e.as_ref()));
        }
    }
}

/// Distinct exit codes for the typed chase failures, so scripts can
/// tell an injected fault (3) from a genuine worker panic (4) from a
/// rerun of a poisoned session (5) without parsing stderr. Everything
/// else is the generic failure (1); usage errors exit 2 (see `usage`).
fn error_exit_code(e: &(dyn std::error::Error + 'static)) -> i32 {
    match e.downcast_ref::<nuchase_engine::ChaseError>() {
        Some(nuchase_engine::ChaseError::Injected { .. }) => 3,
        Some(nuchase_engine::ChaseError::Panic { .. }) => 4,
        Some(nuchase_engine::ChaseError::Poisoned) => 5,
        None => 1,
    }
}
