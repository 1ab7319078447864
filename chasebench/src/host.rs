//! The result header and process counters, read from `/sys` and `/proc`.

use std::path::Path;

/// The header printed with every result: what it was measured on and
/// with which settings.
pub fn header_json(workload: &str, seed: u64, seconds: f64, trace: bool, threads: usize) -> String {
    let (l2, l3) = cache_sizes();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\":\"{workload}\",\"trace\":{trace},\"seed\":{seed},\"seconds\":{seconds},\
         \"threads\":{threads},\"nproc\":{nproc},\"l2\":\"{l2}\",\"l3\":\"{l3}\",\
         \"rustc\":\"{}\",\"git_rev\":\"{}\"}}",
        rustc_version(),
        git_rev()
    )
}

/// L2 and L3 sizes of cpu0 as the kernel reports them (`"2048K"`), or
/// `"unknown"`.
fn cache_sizes() -> (String, String) {
    let mut l2 = "unknown".to_string();
    let mut l3 = "unknown".to_string();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        match level.trim() {
            "2" => l2 = size.trim().to_string(),
            "3" => l3 = size.trim().to_string(),
            _ => {}
        }
    }
    (l2, l3)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().replace('"', "'"))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout holding this package, read from its `.git`
/// directory; `"unknown"` outside a git checkout.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_value("/proc/self/status", "VmHWM:") / 1024.0
}

fn status_value(path: &str, key: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(key)
                    .map(|v| v.trim().trim_end_matches("kB").trim().to_string())
            })
        })
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Process CPU time and context switches at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User plus system CPU seconds of all threads (10 ms ticks).
    pub cpu_s: f64,
    /// Context switches summed over the live threads.
    pub voluntary: u64,
    pub involuntary: u64,
}

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on Linux).
const USER_HZ: f64 = 100.0;

impl ProcSample {
    pub fn now() -> ProcSample {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the line.
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let cpu_s = (tick(11) + tick(12)) / USER_HZ;
        let mut voluntary = 0;
        let mut involuntary = 0;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let path = task.path().join("status");
                let path = path.to_string_lossy();
                voluntary += status_value(&path, "voluntary_ctxt_switches:") as u64;
                involuntary += status_value(&path, "nonvoluntary_ctxt_switches:") as u64;
            }
        }
        ProcSample {
            cpu_s,
            voluntary,
            involuntary,
        }
    }
}

/// CPUs this process may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte length
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpu` (one `allowed_cpus` returned).
/// Threads it spawns afterwards inherit the restriction. A refusal
/// leaves the thread where it was.
fn pin_current_thread(cpu: usize) {
    let mut mask = [0u64; CPU_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is an initialised buffer of exactly the byte length
    // passed, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Builds an engine with its pool on one CPU and the calling thread on
/// another, when the process may use two. Left to the kernel, where the
/// two threads of a threads-2 engine ran changed from run to run, and
/// with it the share of `serve`'s requests answered before the next line
/// arrived: 1% in one run, 22% in another. Placed, the share repeats.
pub fn build_placed<T>(build: impl FnOnce() -> T) -> T {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return build();
    }
    pin_current_thread(cpus[1]);
    let built = build();
    pin_current_thread(cpus[0]);
    built
}
