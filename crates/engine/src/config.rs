//! Centralized parsing for the `NUCHASE_*` environment knobs.
//!
//! Every tunable the engine reads from the environment goes through this
//! module, so the knob inventory lives in one place and malformed values
//! **warn to stderr once** instead of being silently ignored. (Knobs
//! owned by the `model` crate are parsed there — the dependency points
//! the other way — but are documented here for the single-table view.)
//!
//! # Knob table
//!
//! | Knob | Values | Effect |
//! |---|---|---|
//! | `NUCHASE_FORCE_PIPELINE` | `1`/`true`, `0`/`false` | Forces the staged pipeline apply path on (`1`) or the fused micro-round path (`0`); unset = auto per round. |
//! | `NUCHASE_FORCE_BATCH_ENUM` | `1`/`true`, `0`/`false` | Forces columnar batch enumeration on (`1`) or off (`0`) for non-fused rounds; unset = auto by delta width. |
//! | `NUCHASE_THREADS` | integer or `auto` | Default `--threads` for the CLI: execution lanes, where `N ≥ 2` lets scheduler helpers drain wide rounds alongside the calling thread (`0`/`1` = the calling thread alone; `auto` = all cores). |
//! | `NUCHASE_TELEMETRY` | `off`, `counters`, `full` | Telemetry level when the config leaves it `Off`. |
//! | `NUCHASE_TELEMETRY_RING` | integer ≥ 2 | Round-event ring capacity (default 4096; smaller values read as 2). |
//! | `NUCHASE_INSTANCE_SPILL_DIR` | directory path | When set, new arena chunks (instance term pool, postings spill, fired-set tuples) are file-backed `mmap`s in this directory, so instances grow past RAM with bounded RSS. Parsed in `model::chunk`: backing is checked per chunk allocation, the arena-sizing decision it feeds is sampled once at the first arena creation. |
//! | `NUCHASE_CHUNK_LEN` | power-of-two integer ≥ 64 | Arena chunk length in elements (default adaptive: 4096 in-memory, 65536 under the spill tier). Parsed in `model::chunk`, resolved once per process. |
//! | `NUCHASE_SCHED_QUANTUM_US` | integer (µs, default 500) | Job slice quantum for submitted (non-blocking) chases: a job that exceeds it is requeued at the next round boundary so queued jobs interleave fairly. Resolved once per scheduler (engine) construction. |
//! | `NUCHASE_FAULT_PLAN` | `site:nth[:panic][,..]` | Deterministic fault injection: arm the `nth` (0-based) hit of each named site (`arena_grow`, `spill_map`, `spill_transient`, `table_grow`, `worker_task`, `commit`, `sched_unit`, `sched_job`) to fail; the `:panic` flavor unwinds with a plain panic (simulated bug) instead of the typed fault. An explicit `ChaseConfig::fault_plan` wins over the environment. |
//! | `NUCHASE_MEMORY_LIMIT_BYTES` | integer | Instance heap ceiling checked at round boundaries when `ChaseBudget::max_heap_bytes` is unset; hitting it returns a resumable `ChaseOutcome::MemoryLimit`. |
//! | `NUCHASE_SPILL_RETRIES` | integer | Bounded retries for transient (`EINTR`/`EAGAIN`-class) spill-file I/O errors (default 3). Parsed in `model::chunk`, read per mapping attempt. |
//! | `NUCHASE_SPILL_BACKOFF_MS` | integer | Linear backoff between spill retries, in ms per attempt (default 1). Parsed in `model::chunk`. |

use std::collections::BTreeSet;
use std::sync::Mutex;

/// One warning per (knob, malformed value) pair per process: repeated
/// resolution (per run, per bench leg) must not spam stderr, but a
/// *changed* bad value deserves its own warning.
pub(crate) fn warn_once(name: &str, value: &str, expect: &str) {
    static WARNED: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
    let key = format!("{name}={value}");
    // Poison-tolerant: a panic while warning (or an injected worker
    // panic elsewhere in the process) must not silence later warnings.
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if warned.insert(key) {
        eprintln!("nuchase: ignoring malformed {name}={value:?} (expected {expect})");
    }
}

/// Raw read of a `NUCHASE_*` knob (no parsing, no warning).
pub fn env_str(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// A boolean switch knob: `1`/`true` ⇒ `Some(true)`, `0`/`false` ⇒
/// `Some(false)`, unset ⇒ `None`, anything else ⇒ one stderr warning
/// and `None`.
pub fn env_switch(name: &str) -> Option<bool> {
    let v = std::env::var(name).ok()?;
    match v.trim() {
        "1" | "true" => Some(true),
        "0" | "false" => Some(false),
        _ => {
            warn_once(name, &v, "1/true or 0/false");
            None
        }
    }
}

/// An integer knob: unset ⇒ `None`, unparseable ⇒ one stderr warning
/// and `None`.
pub fn env_usize(name: &str) -> Option<usize> {
    let v = std::env::var(name).ok()?;
    match v.trim().parse() {
        Ok(n) => Some(n),
        Err(_) => {
            warn_once(name, &v, "an unsigned integer");
            None
        }
    }
}

/// [`env_usize`] with a default for the unset/malformed cases.
pub fn env_usize_or(name: &str, default: usize) -> usize {
    env_usize(name).unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_parses_and_warns_on_junk() {
        std::env::set_var("NUCHASE_TEST_SWITCH", "1");
        assert_eq!(env_switch("NUCHASE_TEST_SWITCH"), Some(true));
        std::env::set_var("NUCHASE_TEST_SWITCH", "false");
        assert_eq!(env_switch("NUCHASE_TEST_SWITCH"), Some(false));
        std::env::set_var("NUCHASE_TEST_SWITCH", "maybe");
        assert_eq!(env_switch("NUCHASE_TEST_SWITCH"), None);
        std::env::remove_var("NUCHASE_TEST_SWITCH");
        assert_eq!(env_switch("NUCHASE_TEST_SWITCH"), None);
    }

    #[test]
    fn usize_parses_and_warns_on_junk() {
        std::env::set_var("NUCHASE_TEST_USIZE", " 42 ");
        assert_eq!(env_usize("NUCHASE_TEST_USIZE"), Some(42));
        assert_eq!(env_usize_or("NUCHASE_TEST_USIZE", 7), 42);
        std::env::set_var("NUCHASE_TEST_USIZE", "many");
        assert_eq!(env_usize("NUCHASE_TEST_USIZE"), None);
        assert_eq!(env_usize_or("NUCHASE_TEST_USIZE", 7), 7);
        std::env::remove_var("NUCHASE_TEST_USIZE");
        assert_eq!(env_usize_or("NUCHASE_TEST_USIZE", 7), 7);
    }
}
