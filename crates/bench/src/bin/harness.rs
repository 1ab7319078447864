//! The experiment harness: regenerates every experiment table of
//! `EXPERIMENTS.md` (one per quantitative theorem of the paper, plus the
//! telemetry-overhead check `e14`). The engine's speed is measured by
//! the separate `chasebench` package at the workspace root.
//!
//! ```text
//! cargo run --release -p nuchase-bench --bin harness                 # all
//! cargo run --release -p nuchase-bench --bin harness -- e02 e10      # subset
//! cargo run --release -p nuchase-bench --bin harness -- --list
//! ```

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiments = nuchase_bench::all_experiments();

    if args.iter().any(|a| a == "--list") {
        for (id, _) in &experiments {
            println!("{id}");
        }
        return;
    }

    let selected: Vec<_> = if args.is_empty() {
        experiments
    } else {
        experiments
            .into_iter()
            .filter(|(id, _)| args.iter().any(|a| a.eq_ignore_ascii_case(id)))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no experiment matched; use --list to see ids (e01..e14)");
        std::process::exit(2);
    }

    println!("nuchase experiment harness — Non-Uniformly Terminating Chase (PODS 2022)");
    println!("reproducing {} experiment(s)\n", selected.len());
    let mut failures = 0usize;
    let t0 = Instant::now();
    for (id, run) in selected {
        let t = Instant::now();
        let table = run();
        println!("{table}");
        println!("  [{id} took {:.1} s]\n", t.elapsed().as_secs_f64());
        if !table.verdict.starts_with("PASS") {
            failures += 1;
        }
    }
    println!(
        "done in {:.1} s — {}",
        t0.elapsed().as_secs_f64(),
        if failures == 0 {
            "all experiments PASS".to_string()
        } else {
            format!("{failures} experiment(s) FAILED")
        }
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
