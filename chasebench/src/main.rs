//! `chasebench --workload <chain|wide|decide|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header line, then the result as the last line of standard
//! output: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! Untraced runs report the end-to-end metrics, traced runs the
//! per-layer ones, and write their spans to `out/`.

use std::process::ExitCode;

use chasebench::{host, run, Config, THREADS, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                ))
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--seed {value:?} is not an integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value} is outside (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chasebench: {e}");
            eprintln!(
                "usage: chasebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let header = host::header_json(&args.workload, args.seed, args.seconds, args.trace, THREADS);
    println!("header {header}");
    let cfg = Config::full(args.seed, args.seconds);
    let (report, tracer) = match run(&args.workload, &cfg, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chasebench: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &report.problems {
        eprintln!("chasebench: {p}");
    }
    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|mut f| tracer.write_jsonl(&mut f));
        match written {
            Ok(()) => println!("spans {}", path.display()),
            Err(e) => eprintln!("chasebench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
