//! Host-normalised walls.
//!
//! The benchmark host is a share of a busy machine, and its speed drifts
//! with what the rest of the machine does. Memory-bound code drifts most:
//! a fixed chunk of std `HashMap` probes took 9–26 ms from one fifth of a
//! second to the next, while a pure arithmetic loop stayed mostly within
//! ±7%. Between two sets of ten 40-s runs of identical code, that drift
//! moved the quartiles of `wide`'s median chase and of `decide`'s median
//! op half a median apart.
//!
//! So every closed-loop op, and every set-up, is timed between two runs
//! of a fixed [`Kernel`]: naive, std-only code of the same kind as the
//! op, on a fixed input, calling nothing in nuchase. An op's host-normalised
//! wall is its wall × the kernel's nominal wall ÷ the mean of the two
//! kernel walls around it: what the op would take on a host where the
//! kernel takes its nominal time. A change to nuchase moves the op's wall
//! and not the kernel's, so it moves the normalised wall by the same
//! factor.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Naive, std-only work of the same kind as one workload's op. The
/// `Closure` and `Walk` kernels keep their tables between runs and
/// clear them, so after the first run they allocate nothing: allocating
/// afresh between chases raised `wide`'s peak resident set from 25–27 MiB
/// to 28–34 MiB over six runs.
#[derive(Debug, Clone)]
pub enum Kernel {
    /// The transitive closure of the path `0 → 1 → … → n`, recomputed
    /// naively: every round joins every pair with its successors and
    /// probes a `HashMap` for the result. `wide`'s join enumeration and
    /// duplicate probing.
    Closure(Closure),
    /// The depth family's chase walked one step at a time, `reps` times:
    /// a `HashMap` lookup of the next constant and a `HashSet` insert of
    /// the new atom per step. `chain`'s one trigger per round.
    Walk { walk: Walk, reps: usize },
    /// A tenant database tokenised, its constants interned into a
    /// `HashMap` of owned strings, its relations grouped and joined,
    /// `reps` times. `decide`'s parsing, interning and hashing, which
    /// allocate as `decide` does.
    Tenant { text: String, reps: usize },
}

impl Kernel {
    pub fn closure(n: usize) -> Kernel {
        Kernel::Closure(Closure::new(n))
    }

    pub fn walk(n: usize, reps: usize) -> Kernel {
        Kernel::Walk {
            walk: Walk::new(n),
            reps,
        }
    }

    pub fn tenant(text: &str, reps: usize) -> Kernel {
        Kernel::Tenant {
            text: text.to_string(),
            reps,
        }
    }

    /// Runs the kernel once; the result is a count that depends on every
    /// step, so the work cannot be skipped.
    fn run(&mut self) -> usize {
        match self {
            Kernel::Closure(closure) => closure.run(),
            Kernel::Walk { walk, reps } => (0..*reps).map(|_| walk.run()).sum(),
            Kernel::Tenant { text, reps } => (0..*reps)
                .map(|_| tenant_index(std::hint::black_box(text)))
                .sum(),
        }
    }
}

/// A kernel with its nominal wall and the result every run must return.
#[derive(Debug, Clone)]
pub struct Reference {
    kernel: Kernel,
    nominal_ms: f64,
    expect: usize,
}

impl Reference {
    /// Runs the kernel once, untimed, to learn its result and warm it.
    pub fn new(mut kernel: Kernel, nominal_ms: f64) -> Reference {
        let expect = kernel.run();
        Reference {
            kernel,
            nominal_ms,
            expect,
        }
    }

    /// Runs the kernel once and returns its wall in milliseconds.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        let got = std::hint::black_box(self.kernel.run());
        let wall = crate::ms(start.elapsed());
        assert_eq!(got, self.expect, "the reference kernel's result changed");
        wall
    }

    pub fn nominal_ms(&self) -> f64 {
        self.nominal_ms
    }

    /// Runs `f` `times` times, each between two kernel runs, and returns
    /// their host-normalised walls.
    pub fn bracket(&mut self, times: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
        let mut refs = vec![self.time()];
        let mut walls = Vec::with_capacity(times);
        for _ in 0..times {
            walls.push(f());
            refs.push(self.time());
        }
        normalise(&walls, &refs, self.nominal_ms)
    }
}

/// Host-normalised walls: `walls[i]` ran between the kernel runs
/// `refs[i]` and `refs[i + 1]`, and is scaled by `nominal` ÷ their mean.
pub fn normalise(walls: &[f64], refs: &[f64], nominal: f64) -> Vec<f64> {
    assert_eq!(
        refs.len(),
        walls.len() + 1,
        "every wall needs a kernel run on each side"
    );
    walls
        .iter()
        .zip(refs.windows(2))
        .map(|(w, r)| w * nominal / ((r[0] + r[1]) / 2.0))
        .collect()
}

/// The tables of [`Kernel::Closure`].
#[derive(Debug, Clone)]
pub struct Closure {
    n: u64,
    succ: HashMap<u64, Vec<u64>>,
    /// Each pair keeps the round that derived it, as the engine's atoms
    /// keep their depth; with that payload the kernel's wall followed
    /// `wide`'s chase more closely under host drift than with bare `u32`
    /// pairs.
    pairs: HashMap<(u64, u64), u32>,
    new: Vec<(u64, u64)>,
}

impl Closure {
    fn new(n: usize) -> Closure {
        Closure {
            n: n as u64,
            succ: HashMap::new(),
            pairs: HashMap::new(),
            new: Vec::new(),
        }
    }

    /// Pairs in the closure: `n(n+1)/2`.
    fn run(&mut self) -> usize {
        let Closure {
            n,
            succ,
            pairs,
            new,
        } = self;
        pairs.clear();
        succ.values_mut().for_each(Vec::clear);
        for x in 0..*n {
            succ.entry(x).or_default().push(x + 1);
            pairs.insert((x, x + 1), 0);
        }
        for round in 1.. {
            new.clear();
            for &(x, y) in pairs.keys() {
                for &z in succ.get(&y).map_or(&[][..], Vec::as_slice) {
                    if !pairs.contains_key(&(x, z)) {
                        new.push((x, z));
                    }
                }
            }
            if new.is_empty() {
                break;
            }
            for &(x, z) in new.iter() {
                if pairs.insert((x, z), round).is_none() {
                    succ.entry(x).or_default().push(z);
                }
            }
        }
        pairs.len()
    }
}

/// The tables of [`Kernel::Walk`].
#[derive(Debug, Clone)]
pub struct Walk {
    /// The `r` path `0 → 1 → … → n − 1`.
    succ: HashMap<u32, u32>,
    /// `p` atoms; nulls are numbered after the constants.
    atoms: HashSet<(u32, u32, u32)>,
}

impl Walk {
    fn new(n: usize) -> Walk {
        let n = n as u32;
        Walk {
            succ: (0..n - 1).map(|x| (x, x + 1)).collect(),
            atoms: HashSet::new(),
        }
    }

    /// Atoms of the depth family's chase over `n` constants: `2n − 1`.
    fn run(&mut self) -> usize {
        self.atoms.clear();
        let (mut x, mut z) = (0, u32::MAX);
        self.atoms.insert((x, z, z));
        let mut null = self.succ.len() as u32 + 1;
        while let Some(&y) = self.succ.get(&x) {
            self.atoms.insert((y, null, z));
            z = null;
            null += 1;
            x = y;
        }
        self.succ.len() + self.atoms.len()
    }
}

/// Tokenises `text` (one `pred(a, b).` fact a line), interns its
/// constants, and joins `emp` with `active` and `senior` as the tenant Σ
/// does. Returns a count over every step.
fn tenant_index(text: &str) -> usize {
    let mut consts: HashMap<String, u32> = HashMap::new();
    let mut relations: HashMap<String, Vec<Vec<u32>>> = HashMap::new();
    for line in text.lines() {
        let Some((pred, rest)) = line.trim().trim_end_matches('.').split_once('(') else {
            continue;
        };
        let args = rest
            .trim_end_matches(')')
            .split(',')
            .map(|a| {
                let next = consts.len() as u32;
                *consts.entry(a.trim().to_string()).or_insert(next)
            })
            .collect();
        relations.entry(pred.to_string()).or_default().push(args);
    }
    let column = |pred: &str, k: usize| -> HashSet<u32> {
        relations
            .get(pred)
            .map_or_else(HashSet::new, |r| r.iter().map(|a| a[k]).collect())
    };
    let (active, senior) = (column("active", 0), column("senior", 0));
    let mut by_dept: HashMap<u32, Vec<u32>> = HashMap::new();
    let mut joined = 0;
    for a in relations.get("emp").map_or(&[][..], Vec::as_slice) {
        by_dept.entry(a[1]).or_default().push(a[0]);
        joined += usize::from(active.contains(&a[0]) && senior.contains(&a[1]));
    }
    let mut sizes: Vec<usize> = by_dept.values().map(Vec::len).collect();
    sizes.sort_unstable();
    consts.len() + joined + sizes.len() + sizes.last().copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_what_they_model() {
        let mut closure = Kernel::closure(30);
        assert_eq!(closure.run(), 30 * 31 / 2);
        // A second run on the kept tables gives the same answer.
        assert_eq!(closure.run(), 30 * 31 / 2);
        assert_eq!(Kernel::closure(1).run(), 1);
        assert_eq!(Kernel::walk(2, 1).run(), 3);
        let mut walk = Kernel::walk(50, 2);
        assert_eq!(walk.run(), 2 * 99);
        assert_eq!(walk.run(), 2 * 99);
        // Two constants, one joined employee, one department of size one.
        let text = "emp(e, d).\nactive(e).\nsenior(d).\n";
        assert_eq!(tenant_index(text), 2 + 1 + 1 + 1);
        // Two constants, no joined employee, one department of size one.
        assert_eq!(tenant_index("emp(e, d).\n"), 2 + 1 + 1);
        assert_eq!(Kernel::tenant(text, 3).run(), 3 * 5);
    }

    #[test]
    fn normalise_scales_each_wall_by_the_mean_of_its_brackets() {
        // A host running at half speed around the second op doubles
        // both its wall and the kernel's; the normalised walls agree.
        let refs = [10.0, 10.0, 20.0, 20.0];
        let walls = [3.0, 4.5, 6.0];
        let got = normalise(&walls, &refs, 5.0);
        assert_eq!(got, vec![1.5, 1.5, 1.5]);
        assert!(normalise(&[], &[7.0], 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "kernel run on each side")]
    fn normalise_needs_one_more_kernel_run_than_walls() {
        normalise(&[1.0, 2.0], &[1.0, 1.0], 1.0);
    }

    #[test]
    fn bracket_runs_the_kernel_around_every_call() {
        let mut reference = Reference::new(Kernel::closure(8), 2.0);
        let mut calls = 0;
        let walls = reference.bracket(3, || {
            calls += 1;
            1.0
        });
        assert_eq!(calls, 3);
        assert_eq!(walls.len(), 3);
        assert!(walls.iter().all(|w| w.is_finite() && *w > 0.0));
    }
}
