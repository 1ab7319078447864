//! Seeded input generation. Every input the program sees is text made
//! here from the workload seed: the same seed always yields the same
//! bytes (pinned by `tests::inputs_are_byte_identical_per_seed`).
//!
//! The generator is its own SplitMix64 stream, so the inputs do not
//! change when a dependency's random number generator does.

/// SplitMix64: a small, well-mixed 64-bit stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per `salt` so that two workloads
    /// with one seed do not share draws.
    pub fn new(seed: u64, salt: u64) -> Rng {
        let mut rng = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Distinct constant names of one length: `prefix` plus eight hex digits
/// of a seeded bijection of the index, so names carry no order.
struct Names {
    prefix: String,
    mul: u32,
    add: u32,
}

impl Names {
    fn new(prefix: &str, rng: &mut Rng) -> Names {
        Names {
            prefix: prefix.to_string(),
            mul: (rng.next_u64() as u32) | 1,
            add: rng.next_u64() as u32,
        }
    }

    fn name(&self, i: usize) -> String {
        let id = (i as u32).wrapping_mul(self.mul).wrapping_add(self.add);
        format!("{}{id:08x}", self.prefix)
    }
}

/// The rule of Proposition 4.5's depth family (`nuchase_gen::depth_family`).
pub const CHAIN_SIGMA: &str = "r(X, Y), p(X, Z, V) -> p(Y, W, Z).\n";

/// The depth family `D_n` of Proposition 4.5 as program text: one `p`
/// token at the head of an `r` path of `n` constants. The chase walks
/// the token down the path, one trigger per round, and stops after
/// `n − 1` rounds with `2n − 1` atoms. The seed picks the constant
/// names and the fact order.
pub fn chain_text(seed: u64, n: usize) -> String {
    assert!(n >= 2, "the depth family needs n >= 2");
    let mut rng = Rng::new(seed, 1);
    let names = Names::new("a", &mut rng);
    let mut facts: Vec<String> = (0..n - 1)
        .map(|i| format!("r({}, {}).\n", names.name(i), names.name(i + 1)))
        .collect();
    facts.push(format!("p({}, b, b).\n", names.name(0)));
    rng.shuffle(&mut facts);
    let mut text = String::from(CHAIN_SIGMA);
    text.extend(facts);
    text
}

/// The transitive-closure rule.
pub const WIDE_SIGMA: &str = "e(X, Y), e(Y, Z) -> e(X, Z).\n";

/// Transitive closure of an `n`-edge path as program text. The chase
/// doubles path lengths each round (about log₂ n rounds) and ends with
/// `n(n+1)/2` atoms; most triggers rederive an existing atom. The seed
/// picks the constant names and the fact order.
pub fn wide_text(seed: u64, n: usize) -> String {
    let mut rng = Rng::new(seed, 2);
    let names = Names::new("c", &mut rng);
    let mut facts: Vec<String> = (0..n)
        .map(|i| format!("e({}, {}).\n", names.name(i), names.name(i + 1)))
        .collect();
    rng.shuffle(&mut facts);
    let mut text = String::from(WIDE_SIGMA);
    text.extend(facts);
    text
}

/// The guarded Σ shared by `decide` and `serve`. A tenant diverges
/// exactly when a senior department has an active employee: that
/// employee's manager is again an active employee of the department,
/// whose manager is another, and so on.
pub const TENANT_SIGMA: &str = "\
emp(X, D), active(X) -> worksfor(X, D, M).
worksfor(X, D, M) -> mgr(M, D).
mgr(M, D), senior(D) -> emp(M, D), active(M).
emp(X, D) -> dept(D).
";

/// One tenant database of the [`TENANT_SIGMA`] schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tenant {
    /// Facts, one `.`-terminated atom per line.
    pub text: String,
    /// Number of facts in `text`.
    pub facts: usize,
    /// Diverges by construction (a senior department has an active
    /// employee).
    pub diverges: bool,
}

/// A tenant with `employees` employees spread over about one department
/// per eight of them; about half the employees are active and a third of
/// the departments senior. When `diverges` is false no senior department
/// gets an active employee; when true exactly one does. Constants carry
/// `tag`, so distinct tags give disjoint constants.
pub fn tenant(rng: &mut Rng, tag: &str, employees: usize, diverges: bool) -> Tenant {
    let depts = (employees / 8).max(2);
    let seniors: Vec<bool> = (0..depts).map(|d| d == 0 || rng.below(3) == 0).collect();
    let senior_active = if diverges {
        Some(rng.below(employees as u64) as usize)
    } else {
        None
    };
    let mut facts = Vec::with_capacity(employees * 2 + depts);
    for e in 0..employees {
        let d = if senior_active == Some(e) {
            0
        } else {
            rng.below(depts as u64) as usize
        };
        facts.push(format!("emp({tag}e{e}, {tag}d{d})."));
        let active = senior_active == Some(e) || (!seniors[d] && rng.below(2) == 0);
        if active {
            facts.push(format!("active({tag}e{e})."));
        }
    }
    for (d, &senior) in seniors.iter().enumerate() {
        if senior {
            facts.push(format!("senior({tag}d{d})."));
        }
    }
    rng.shuffle(&mut facts);
    let mut text = String::with_capacity(facts.len() * 24);
    for f in &facts {
        text.push_str(f);
        text.push('\n');
    }
    Tenant {
        text,
        facts: facts.len(),
        diverges,
    }
}

/// The `i`-th database of the decide stream: 100–200 employees (about
/// 120–300 facts), diverging on even draws of a fair coin.
pub fn decide_tenant(seed: u64, i: u64) -> Tenant {
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0x9E37_79B9), 3);
    let employees = rng.range(100, 200);
    let diverges = rng.below(2) == 0;
    tenant(&mut rng, &format!("t{i}"), employees, diverges)
}

/// The warm-up database of every `decide` set-up: 150 employees, one
/// senior department with an active employee. Fixed, so that set-up
/// does the same work under every seed.
pub fn warm_tenant() -> Tenant {
    tenant(&mut Rng::new(0, 6), "w", 150, true)
}

/// One `serve` request. Its line is the only copy of its facts.
#[derive(Debug, Clone)]
pub struct Request {
    /// `r<index>` and the tenant's facts, newline-terminated.
    pub line: String,
    /// Number of facts in the line.
    pub facts: usize,
    /// Diverges by construction.
    pub diverges: bool,
}

impl Request {
    /// The facts after the request id, as `serve_batch` parses them.
    pub fn payload(&self) -> &str {
        self.line
            .split_once(' ')
            .map_or("", |(_, rest)| rest.trim())
    }
}

/// One request in this many is a large tenant. The repository's own serve
/// harness (`serve_tenants` in `crates/bench/src/perf.rs`) makes every
/// eighth tenant slow, with 20× the facts of the others.
pub const SERVE_LARGE_EVERY: usize = 8;
/// One request in this many is a small diverging tenant, which runs to
/// the atom budget. No served traffic exists to take a share from, so
/// this is a choice: a diverging tenant is the other kind of slow tenant,
/// and it gets the same one-in-eight share as the large ones.
pub const SERVE_DIVERGING_EVERY: usize = 8;
/// Employees of a small tenant (7–18 facts, 11 on average); a large
/// tenant has 20× as many (150–298 facts, 217 on average).
pub const SERVE_SMALL_EMPLOYEES: (usize, usize) = (6, 10);

/// `count` serve requests: small tenants, large ones and small diverging
/// ones, in fixed shares and seeded order, each over its own constants.
pub fn serve_requests(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, 4);
    let (lo, hi) = SERVE_SMALL_EMPLOYEES;
    // Fixed shares, seeded order: every seed offers the same mix.
    let large = count / SERVE_LARGE_EVERY;
    let diverging = count / SERVE_DIVERGING_EVERY;
    let mut kinds = vec![((lo, hi), false); count];
    kinds[..large].fill(((20 * lo, 20 * hi), false));
    kinds[large..large + diverging].fill(((lo, hi), true));
    rng.shuffle(&mut kinds);
    kinds
        .iter()
        .enumerate()
        .map(|(i, &((lo, hi), diverges))| {
            let employees = rng.range(lo, hi);
            let tenant = tenant(&mut rng, &format!("q{i}"), employees, diverges);
            let mut line = format!("r{i}");
            for fact in tenant.text.lines() {
                line.push(' ');
                line.push_str(fact);
            }
            line.push('\n');
            Request {
                line,
                facts: tenant.facts,
                diverges,
            }
        })
        .collect()
}

/// Send offsets of an open-loop Poisson schedule: `count` arrivals at
/// `rate` per second. The gaps are the exponential distribution's
/// quantiles at `(k + ½)/count` in seeded order, so every seed offers
/// exactly the same gaps and only their order varies. Offsets are in
/// nanoseconds from the start of the schedule; the first is 0.
pub fn poisson_offsets(seed: u64, count: usize, rate: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 5);
    let mut gaps: Vec<f64> = (0..count)
        .map(|k| -(1.0 - (k as f64 + 0.5) / count as f64).ln() / rate)
        .collect();
    rng.shuffle(&mut gaps);
    let mut at = 0.0;
    let mut offsets = Vec::with_capacity(count);
    for gap in gaps {
        offsets.push((at * 1e9) as u64);
        at += gap;
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_byte_identical_per_seed() {
        for seed in [0, 7, 123_456_789] {
            assert_eq!(chain_text(seed, 50), chain_text(seed, 50));
            assert_eq!(wide_text(seed, 30), wide_text(seed, 30));
            assert_eq!(decide_tenant(seed, 5), decide_tenant(seed, 5));
            let a: Vec<String> = serve_requests(seed, 40)
                .into_iter()
                .map(|r| r.line)
                .collect();
            let b: Vec<String> = serve_requests(seed, 40)
                .into_iter()
                .map(|r| r.line)
                .collect();
            assert_eq!(a, b);
            assert_eq!(
                poisson_offsets(seed, 50, 400.0),
                poisson_offsets(seed, 50, 400.0)
            );
        }
        assert_ne!(chain_text(1, 50), chain_text(2, 50));
        assert_ne!(decide_tenant(1, 0), decide_tenant(2, 0));
    }

    #[test]
    fn pinned_bytes_for_seed_one() {
        // Changing a generator changes what every later run measures:
        // move this value only on purpose.
        let mut all = chain_text(1, 20);
        all.push_str(&wide_text(1, 20));
        all.push_str(&decide_tenant(1, 0).text);
        for r in serve_requests(1, 20) {
            all.push_str(&r.line);
        }
        for o in poisson_offsets(1, 20, 400.0) {
            all.push_str(&o.to_string());
        }
        assert_eq!(fnv1a(all.as_bytes()), PINNED_SEED_ONE);
    }

    const PINNED_SEED_ONE: u64 = 9_684_532_930_172_482_448;

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn schedule_has_the_requested_rate_and_fixed_gaps() {
        let a = poisson_offsets(3, 4000, 400.0);
        let b = poisson_offsets(4, 4000, 400.0);
        let span = |o: &[u64]| *o.last().unwrap() as f64 / 1e9;
        assert!((span(&a) - 10.0).abs() < 0.2, "{}", span(&a));
        let mut ga: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mut gb: Vec<u64> = b.windows(2).map(|w| w[1] - w[0]).collect();
        ga.sort_unstable();
        gb.sort_unstable();
        // One gap of each seed is the unused tail; the rest coincide up
        // to float rounding.
        let med = |g: &[u64]| g[g.len() / 2] as i64;
        assert!((med(&ga) - med(&gb)).abs() < 2_000);
        assert_ne!(a, b);
    }

    #[test]
    fn tenants_have_their_constructed_shape() {
        let mut rng = Rng::new(9, 9);
        for diverges in [false, true] {
            let t = tenant(&mut rng, "x", 150, diverges);
            assert_eq!(t.text.lines().count(), t.facts);
            assert!(t.facts >= 150 && t.facts <= 350, "{}", t.facts);
        }
        let reqs = serve_requests(5, 100);
        assert_eq!(reqs.iter().filter(|r| r.diverges).count(), 12);
        let facts: Vec<usize> = reqs.iter().map(|r| r.facts).collect();
        assert_eq!(facts.iter().filter(|&&f| f > 100).count(), 12, "{facts:?}");
        for r in &reqs {
            assert!(r.line.starts_with('r') && r.line.ends_with('\n'));
            let payload = r.payload();
            assert_eq!(payload.matches(").").count(), r.facts, "{payload}");
        }
    }
}
