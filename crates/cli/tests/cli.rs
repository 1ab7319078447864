//! End-to-end checks of the built `nuchase` binary's argument parsing:
//! every subcommand accepts exactly its documented flags and
//! positionals, and anything else is a usage error (exit code 2, usage
//! text on stderr) before any chase runs.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A tiny diverging program: a flag that went unnoticed would let its
/// chase run to the default budget.
fn program_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("nuchase_cli_{name}_{}.dlp", std::process::id()));
    std::fs::write(&path, "r(a, b).\nr(X, Y) -> r(Y, Z).\n").unwrap();
    path
}

fn nuchase(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nuchase"))
        .args(args)
        .output()
        .expect("the nuchase binary runs")
}

fn assert_usage_error(out: &Output, label: &str) {
    assert_eq!(out.status.code(), Some(2), "{label}: exit code");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: nuchase"), "{label}: {stderr}");
    assert!(out.stdout.is_empty(), "{label}: ran anyway");
}

#[test]
fn unknown_flags_are_usage_errors() {
    let path = program_file("unknown_flags");
    let file = path.to_str().unwrap();
    assert_usage_error(&nuchase(&["run", file, "--bogus"]), "run --bogus");
    assert_usage_error(
        &nuchase(&["run", file, "--max-atoms", "2000"]),
        "run --max-atoms",
    );
    // A flag another subcommand documents is still unknown here.
    assert_usage_error(
        &nuchase(&["decide", file, "--atoms", "10"]),
        "decide --atoms",
    );
    assert_usage_error(&nuchase(&["serve", file, "--print"]), "serve --print");
    std::fs::remove_file(&path).ok();
}

#[test]
fn extra_positionals_are_usage_errors() {
    let path = program_file("extra_positionals");
    let file = path.to_str().unwrap();
    assert_usage_error(&nuchase(&["run", file, "extra"]), "run extra");
    assert_usage_error(&nuchase(&["bounds"]), "bounds without a program");
    std::fs::remove_file(&path).ok();
}

#[test]
fn documented_flags_still_run() {
    let path = program_file("documented_flags");
    let file = path.to_str().unwrap();
    let out = nuchase(&["run", file, "--atoms", "50", "--threads", "1"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("budget exhausted at 50 atoms"), "{stdout}");
    assert!(stdout.contains("engine: threads 1"), "{stdout}");
    // A known flag without its value is an error, not a usage error.
    let out = nuchase(&["run", file, "--threads"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_file(&path).ok();
}
