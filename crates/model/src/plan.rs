//! Compiled match plans: the query-compilation layer of the hom search.
//!
//! The chase evaluates the same rule bodies millions of times, so
//! everything that can be decided *per rule* must not be recomputed *per
//! candidate atom*. A [`MatchPlan`] compiles a pattern conjunction once —
//! at `Tgd`/`Cq` construction — into:
//!
//! * the **full-enumeration stage** (patterns in given order, whole
//!   instance), and
//! * one **pivot stage per pattern** for semi-naive delta enumeration:
//!   the pivot pattern (restricted to the delta) is matched first, the
//!   patterns before it against the old region, the rest against
//!   everything — the standard duplicate-free pivot scheme, with the
//!   permuted pattern lists and `Region` vectors precomputed instead of
//!   cloned per round;
//! * **position-keyed index probing**: at runtime the search probes the
//!   `(pred, position, term)` posting list of every argument position
//!   whose term is ground or already bound, and scans the *most
//!   selective* (shortest) list, rather than the first bound argument.
//!   Because the index keys on the position, a candidate list never
//!   contains atoms that mention the bound term only in a different
//!   argument slot;
//! * **region partitioning** for parallel fan-out: the pivot stages are
//!   individually addressable ([`MatchPlan::for_each_hom_pivot`]) and
//!   the delta region splits into contiguous windows ([`delta_windows`]),
//!   so `(rule, pivot, window)` task units partition the delta
//!   homomorphisms exactly — disjointly and exhaustively — across
//!   worker threads.
//!
//! The backtracking state lives in a caller-owned [`Scratch`] (binding
//! slots + a single undo trail with per-depth marks), so the inner search
//! loop performs **zero heap allocations per candidate** — no trail
//! `Vec`s, no pattern clones, no binding copies.

use std::ops::ControlFlow;

use crate::atom::Atom;
use crate::instance::{AtomIdx, Instance};
use crate::symbols::{PredId, VarId};
use crate::term::Term;

/// Which part of the instance a pattern atom may match during semi-naive
/// enumeration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Region {
    /// Atom indexes `< delta_start`.
    Old,
    /// Atom indexes `≥ delta_start`.
    New,
    /// The whole instance.
    All,
}

/// One pattern to match, with its region. Every argument position is a
/// usable probe under the position-keyed index (even a repeated variable
/// keys *different* lists at its different positions), so no probe list
/// is precomputed.
#[derive(Clone, PartialEq, Eq, Debug)]
struct Step {
    pattern: Atom,
    region: Region,
}

impl Step {
    fn new(pattern: &Atom, region: Region) -> Step {
        Step {
            pattern: pattern.clone(),
            region,
        }
    }
}

/// Reusable scratch state for plan execution: the variable binding and the
/// backtracking trail. One `Scratch` serves any number of searches (and
/// any number of plans); reusing it across calls is what makes the search
/// allocation-free after warm-up.
#[derive(Debug, Default, Clone)]
pub struct Scratch {
    binding: Vec<Option<Term>>,
    trail: Vec<u32>,
}

impl Scratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the first `var_count` binding slots and sizes the buffers.
    fn prepare(&mut self, var_count: u32) {
        let n = var_count as usize;
        self.binding.clear();
        self.binding.resize(n, None);
        self.trail.clear();
    }
}

/// Where a keyed argument position's term comes from when a lane program
/// runs: a ground pattern term, or the value of a variable bound by an
/// earlier step (read from that variable's frontier column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum KeySource {
    /// A ground term in the pattern itself.
    Ground(Term),
    /// A variable bound by an earlier step of the same program.
    Var(u32),
}

/// One step of a compiled **lane program** — the batch (columnar)
/// counterpart of [`Step`]. Where the backtracking search classifies a
/// pattern's argument positions *per candidate* (probe the bound ones,
/// bind the free ones), the lane program fixes the classification at
/// compile time, because which variables are bound at step `k` depends
/// only on steps `0..k`, never on the data:
///
/// * `keys` — positions whose term is known before the step runs (ground,
///   or a variable bound earlier). Their `(pred, position, term)` posting
///   lists are *intersected* to produce the candidate set; posting lists
///   are position-exact, so keyed positions need no re-verification.
/// * `binds` — first occurrences of free variables: the candidate atom's
///   argument is written to the variable's frontier column.
/// * `self_eqs` — repeated occurrences of a variable *first bound by this
///   very step*: checked intra-atom (`args[pos] == args[first]`), the one
///   constraint list membership cannot express.
/// * `carry` — variables bound before this step, whose column values the
///   surviving rows copy forward.
#[derive(Clone, PartialEq, Eq, Debug)]
struct LaneStep {
    pred: PredId,
    region: Region,
    keys: Vec<(u32, KeySource)>,
    binds: Vec<(u32, u32)>,
    self_eqs: Vec<(u32, u32)>,
    carry: Vec<u32>,
}

/// A compiled match plan for a pattern conjunction over dense rule-local
/// variables `0..var_count`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MatchPlan {
    var_count: u32,
    /// Patterns in given order, [`Region::All`] — full enumeration.
    full: Vec<Step>,
    /// `pivots[j]`: pattern `j` first (restricted to the delta), patterns
    /// `< j` against the old region, patterns `> j` against everything.
    pivots: Vec<Vec<Step>>,
    /// The lane program of each pivot stage — the batch enumeration
    /// counterpart of `pivots`, same stage order.
    lane_pivots: Vec<Vec<LaneStep>>,
    /// Is variable `v` bound by the patterns (occurs in some body atom)?
    /// Unbound slots (head existentials sharing the dense id space) emit
    /// their placeholder in [`BindingBlock::read_row`].
    lane_bound: Vec<bool>,
}

impl MatchPlan {
    /// Compiles a plan with delta stages. `patterns` use dense variable
    /// ids `0..var_count`.
    pub fn compile(patterns: &[Atom], var_count: u32) -> MatchPlan {
        let mut plan = MatchPlan::compile_scan(patterns, var_count);
        plan.pivots = (0..patterns.len())
            .map(|pivot| {
                // Match the pivot (delta-restricted) pattern FIRST: the
                // delta is small, and its bindings turn the remaining
                // old/all scans into index lookups.
                let mut steps = Vec::with_capacity(patterns.len());
                steps.push(Step::new(&patterns[pivot], Region::New));
                for (k, p) in patterns.iter().enumerate() {
                    if k != pivot {
                        let region = if k < pivot { Region::Old } else { Region::All };
                        steps.push(Step::new(p, region));
                    }
                }
                steps
            })
            .collect();
        plan.lane_pivots = plan
            .pivots
            .iter()
            .map(|steps| compile_lane_steps(steps, var_count))
            .collect();
        plan.lane_bound = vec![false; var_count as usize];
        for p in patterns {
            for t in &p.args {
                if let Term::Var(v) = t {
                    plan.lane_bound[v.index()] = true;
                }
            }
        }
        plan
    }

    /// Compiles a full-enumeration-only plan — no per-pivot delta stages.
    /// Use for plans that only ever run [`MatchPlan::for_each_hom`] /
    /// [`MatchPlan::for_each_hom_seeded`] (query evaluation, head
    /// matching): skipping the pivot permutations makes construction
    /// linear instead of quadratic in the pattern count. Calling
    /// [`MatchPlan::for_each_hom_delta`] with a nonzero `delta_start` on
    /// such a plan panics.
    pub fn compile_scan(patterns: &[Atom], var_count: u32) -> MatchPlan {
        debug_assert!(
            patterns
                .iter()
                .flat_map(|p| p.args.iter())
                .all(|t| t.as_var().is_none_or(|v| v.0 < var_count)),
            "pattern variables must be dense in 0..var_count"
        );
        let full: Vec<Step> = patterns.iter().map(|p| Step::new(p, Region::All)).collect();
        MatchPlan {
            var_count,
            full,
            pivots: Vec::new(),
            lane_pivots: Vec::new(),
            lane_bound: Vec::new(),
        }
    }

    /// Number of dense variables the plan binds.
    pub fn var_count(&self) -> u32 {
        self.var_count
    }

    /// The number of patterns in the conjunction.
    pub fn pattern_count(&self) -> usize {
        self.full.len()
    }

    /// Enumerates every homomorphism from the compiled patterns into
    /// `inst`, invoking `callback` with the complete binding (indexed by
    /// dense variable id). Return [`ControlFlow::Break`] to stop early.
    pub fn for_each_hom(
        &self,
        inst: &Instance,
        scratch: &mut Scratch,
        mut callback: impl FnMut(&[Option<Term>]) -> ControlFlow<()>,
    ) {
        scratch.prepare(self.var_count);
        let mut search = Search {
            inst,
            steps: &self.full,
            delta_start: 0,
            new_lo: 0,
            new_hi: AtomIdx::MAX,
            binding: &mut scratch.binding,
            trail: &mut scratch.trail,
            callback: &mut callback,
        };
        let _ = search.go(0);
    }

    /// Enumerates every homomorphism whose image contains at least one
    /// atom with index `≥ delta_start`, without duplicates (pivot
    /// scheme). With `delta_start == 0` this equals
    /// [`MatchPlan::for_each_hom`].
    pub fn for_each_hom_delta(
        &self,
        inst: &Instance,
        delta_start: AtomIdx,
        scratch: &mut Scratch,
        mut callback: impl FnMut(&[Option<Term>]) -> ControlFlow<()>,
    ) {
        if delta_start == 0 {
            self.for_each_hom(inst, scratch, callback);
            return;
        }
        if delta_start as usize >= inst.len() {
            return; // empty delta: nothing new can match
        }
        assert!(
            self.pivots.len() == self.full.len(),
            "delta enumeration on a plan compiled with MatchPlan::compile_scan"
        );
        for steps in &self.pivots {
            scratch.prepare(self.var_count);
            let mut search = Search {
                inst,
                steps,
                delta_start,
                new_lo: delta_start,
                new_hi: AtomIdx::MAX,
                binding: &mut scratch.binding,
                trail: &mut scratch.trail,
                callback: &mut callback,
            };
            if search.go(0).is_break() {
                return;
            }
        }
    }

    /// The number of pivot stages compiled for delta enumeration (equals
    /// [`MatchPlan::pattern_count`] for [`MatchPlan::compile`]d plans, 0
    /// for scan-only plans).
    pub fn pivot_count(&self) -> usize {
        self.pivots.len()
    }

    /// Runs a single pivot stage of the delta enumeration, with the pivot
    /// pattern's candidates restricted to atom indexes in
    /// `window = [lo, hi)` (which must lie within the delta
    /// `[delta_start, len)`).
    ///
    /// This is the chase round loop's task unit: for a fixed
    /// `delta_start`, the homomorphism sets produced by
    /// `(pivot, window)` over all pivot stages and a disjoint cover of
    /// the delta by windows partition exactly the homomorphisms of
    /// [`MatchPlan::for_each_hom_delta`] — same set, and concatenating in
    /// `(pivot, window.lo)` order reproduces the same enumeration order.
    /// With `delta_start == 0` only pivot 0 yields homomorphisms (every
    /// later stage requires a match in the then-empty old region), and
    /// pivot 0 windowed over `[0, len)` partitions the full enumeration.
    ///
    /// # Panics
    /// Panics on plans compiled with [`MatchPlan::compile_scan`].
    pub fn for_each_hom_pivot(
        &self,
        inst: &Instance,
        delta_start: AtomIdx,
        pivot: usize,
        window: (AtomIdx, AtomIdx),
        scratch: &mut Scratch,
        mut callback: impl FnMut(&[Option<Term>]) -> ControlFlow<()>,
    ) {
        assert!(
            self.pivots.len() == self.full.len(),
            "pivot enumeration on a plan compiled with MatchPlan::compile_scan"
        );
        debug_assert!(window.0 >= delta_start, "window must lie in the delta");
        if window.0 >= window.1 {
            return;
        }
        scratch.prepare(self.var_count);
        let mut search = Search {
            inst,
            steps: &self.pivots[pivot],
            delta_start,
            new_lo: window.0,
            new_hi: window.1,
            binding: &mut scratch.binding,
            trail: &mut scratch.trail,
            callback: &mut callback,
        };
        let _ = search.go(0);
    }

    /// Like [`MatchPlan::for_each_hom`], but starting from a partial
    /// binding: `seed[v] = Some(t)` pins variable `v` to `t`. Used e.g. by
    /// the restricted chase's activeness check, which asks for an
    /// extension `h' ⊇ h|fr(σ)` mapping the head into the instance.
    pub fn for_each_hom_seeded(
        &self,
        inst: &Instance,
        seed: &[Option<Term>],
        scratch: &mut Scratch,
        mut callback: impl FnMut(&[Option<Term>]) -> ControlFlow<()>,
    ) {
        scratch.prepare(self.var_count);
        scratch.binding[..seed.len()].copy_from_slice(seed);
        let mut search = Search {
            inst,
            steps: &self.full,
            delta_start: 0,
            new_lo: 0,
            new_hi: AtomIdx::MAX,
            binding: &mut scratch.binding,
            trail: &mut scratch.trail,
            callback: &mut callback,
        };
        let _ = search.go(0);
    }

    /// Does an extension of `seed` map all patterns into `inst`?
    pub fn exists_hom_seeded(
        &self,
        inst: &Instance,
        seed: &[Option<Term>],
        scratch: &mut Scratch,
    ) -> bool {
        let mut found = false;
        self.for_each_hom_seeded(inst, seed, scratch, |_| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// The **batch** counterpart of [`MatchPlan::for_each_hom_pivot`]:
    /// runs the pivot stage's compiled lane program, materializing
    /// complete bindings into block-sized columnar buffers and invoking
    /// `on_block` once per block instead of once per homomorphism.
    ///
    /// The execution is breadth-first per block: the pivot's candidate
    /// atoms (window-clipped, ascending) are chunked; each chunk's rows
    /// cascade level by level, every level computing its candidates by
    /// posting-list **intersection** ([`Instance::intersect_pred_term_at`])
    /// over the step's keyed positions — galloping sorted-merge, the
    /// variable-at-a-time intersection of worst-case-optimal join
    /// evaluation — rather than per-candidate probe-and-unify.
    ///
    /// # Equivalence with the backtracking search
    ///
    /// The rows delivered across blocks are exactly the bindings
    /// [`MatchPlan::for_each_hom_pivot`] yields, **in the same order**:
    /// rows are processed in frontier order and candidates appended
    /// ascending, so the block rows enumerate the search tree's leaves in
    /// lexicographic path order — precisely the depth-first visit order —
    /// and a step's intersection equals the search's
    /// shortest-list-scan-plus-unification filter (posting lists are
    /// position-exact; intra-atom repeats are the `self_eqs` checks).
    /// Pinned by the order-and-content equality tests below.
    ///
    /// # Panics
    /// Panics on plans compiled with [`MatchPlan::compile_scan`].
    pub fn for_each_hom_pivot_batch(
        &self,
        inst: &Instance,
        delta_start: AtomIdx,
        pivot: usize,
        window: (AtomIdx, AtomIdx),
        bs: &mut BatchScratch,
        mut on_block: impl FnMut(&BindingBlock<'_>) -> ControlFlow<()>,
    ) {
        assert!(
            self.lane_pivots.len() == self.full.len(),
            "batch enumeration on a plan compiled with MatchPlan::compile_scan"
        );
        debug_assert!(window.0 >= delta_start, "window must lie in the delta");
        let _ = self.batch_pivot_sized(
            inst,
            delta_start,
            pivot,
            window,
            BATCH_BLOCK,
            bs,
            &mut on_block,
        );
    }

    /// The lane-program executor behind the batch entry points, with an
    /// explicit block size (the tests shrink it to cross block
    /// boundaries on small instances).
    #[allow(clippy::too_many_arguments)]
    fn batch_pivot_sized(
        &self,
        inst: &Instance,
        delta_start: AtomIdx,
        pivot: usize,
        window: (AtomIdx, AtomIdx),
        block_size: usize,
        bs: &mut BatchScratch,
        on_block: &mut dyn FnMut(&BindingBlock<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if window.0 >= window.1 {
            return ControlFlow::Continue(());
        }
        let prog = &self.lane_pivots[pivot];
        bs.prepare(self.var_count);
        let BatchScratch {
            level0,
            isect,
            isect_tmp,
            key_terms,
            bind_vals,
            cols,
        } = bs;

        // Level 0 — the pivot step: its keys can only be ground (no
        // variable is bound before the first step), so the candidate set
        // is computed once for the whole window.
        let step0 = &prog[0];
        key_terms.clear();
        for &(pos, src) in &step0.keys {
            match src {
                KeySource::Ground(t) => key_terms.push((pos, t)),
                KeySource::Var(_) => unreachable!("no variable is bound before step 0"),
            }
        }
        inst.intersect_pred_term_at(step0.pred, key_terms, window, level0, isect_tmp);

        let [cols_a, cols_b] = cols;
        for block in level0.chunks(block_size) {
            let (mut cur, mut nxt): (&mut Vec<Vec<Term>>, &mut Vec<Vec<Term>>) =
                (&mut *cols_a, &mut *cols_b);

            // Seed the frontier from the block's pivot candidates.
            for col in cur.iter_mut() {
                col.clear();
            }
            let mut rows = 0usize;
            'seed: for &idx in block {
                let atom = inst.atom(idx);
                for &(pos, first) in &step0.self_eqs {
                    if atom.args[pos as usize] != atom.args[first as usize] {
                        continue 'seed;
                    }
                }
                for &(pos, v) in &step0.binds {
                    cur[v as usize].push(atom.args[pos as usize]);
                }
                rows += 1;
            }

            // Cascade the remaining levels: per row, intersect the keyed
            // posting lists, check intra-atom repeats, extend the next
            // frontier in place.
            for step in &prog[1..] {
                if rows == 0 {
                    break;
                }
                for col in nxt.iter_mut() {
                    col.clear();
                }
                let bounds = match step.region {
                    Region::Old => (0, delta_start),
                    Region::All => (0, AtomIdx::MAX),
                    Region::New => (window.0, window.1),
                };
                if bind_vals.len() < step.binds.len() {
                    bind_vals.resize_with(step.binds.len(), Vec::new);
                }
                let mut next_rows = 0usize;
                // Consecutive rows frequently repeat a key (delta commits
                // cluster atoms by the value they extend, and star-shaped
                // joins fan out under one hub), so rows are processed a
                // *run* of equal keys at a time: the candidate lookup —
                // an index probe or a full multi-key intersection — and
                // the self-eq filter happen once per run, and each run
                // row extends the next frontier by a splat (carried
                // values) plus a memcpy (the pre-filtered bind values)
                // instead of per-candidate pushes.
                let mut row = 0usize;
                while row < rows {
                    key_terms.clear();
                    for &(pos, src) in &step.keys {
                        let t = match src {
                            KeySource::Ground(t) => t,
                            KeySource::Var(v) => cur[v as usize][row],
                        };
                        key_terms.push((pos, t));
                    }
                    // Extend the run while every variable key component
                    // repeats (ground components are constant).
                    let mut end = row + 1;
                    'run: while end < rows {
                        for (j, &(_, src)) in step.keys.iter().enumerate() {
                            if let KeySource::Var(v) = src {
                                if cur[v as usize][end] != key_terms[j].1 {
                                    break 'run;
                                }
                            }
                        }
                        end += 1;
                    }
                    let cands: &[AtomIdx] = match key_terms.len() {
                        0 => {
                            let list = inst.atoms_with_pred(step.pred);
                            let lo = list.partition_point(|&i| i < bounds.0);
                            let hi = list.partition_point(|&i| i < bounds.1);
                            &list[lo..hi]
                        }
                        1 => {
                            let (pos, t) = key_terms[0];
                            let list = inst.atoms_with_pred_term_at(step.pred, pos, t);
                            let lo = list.partition_point(|&i| i < bounds.0);
                            let hi = list.partition_point(|&i| i < bounds.1);
                            &list[lo..hi]
                        }
                        _ => {
                            inst.intersect_pred_term_at(
                                step.pred, key_terms, bounds, isect, isect_tmp,
                            );
                            isect
                        }
                    };
                    // Pre-filter the run's candidates: self-eq checks
                    // depend only on the atom, so they hold for every row
                    // of the run; surviving bind values land column-wise.
                    for b in bind_vals[..step.binds.len()].iter_mut() {
                        b.clear();
                    }
                    let mut m = 0usize;
                    'cand: for &idx in cands {
                        let atom = inst.atom(idx);
                        for &(pos, first) in &step.self_eqs {
                            if atom.args[pos as usize] != atom.args[first as usize] {
                                continue 'cand;
                            }
                        }
                        for (j, &(pos, _)) in step.binds.iter().enumerate() {
                            bind_vals[j].push(atom.args[pos as usize]);
                        }
                        m += 1;
                    }
                    if m > 0 {
                        // Column-wise extension: each output column is
                        // independent, so the carried splats and bind
                        // copies run one sequential column at a time.
                        for &v in &step.carry {
                            let src = &cur[v as usize][row..end];
                            let col = &mut nxt[v as usize];
                            for &val in src {
                                let len = col.len();
                                col.resize(len + m, val);
                            }
                        }
                        for (j, &(_, v)) in step.binds.iter().enumerate() {
                            let col = &mut nxt[v as usize];
                            for _ in row..end {
                                col.extend_from_slice(&bind_vals[j]);
                            }
                        }
                        next_rows += m * (end - row);
                    }
                    row = end;
                }
                rows = next_rows;
                std::mem::swap(&mut cur, &mut nxt);
            }

            if rows > 0 {
                let block = BindingBlock {
                    cols: cur,
                    bound: &self.lane_bound,
                    rows,
                };
                on_block(&block)?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// Compiles one pivot stage's [`Step`] list into its lane program: the
/// static keys/binds/self-eqs/carry classification of every argument
/// position, derived by simulating the bound-variable set step by step
/// (which depends only on the step order, never on the data).
fn compile_lane_steps(steps: &[Step], var_count: u32) -> Vec<LaneStep> {
    let mut bound = vec![false; var_count as usize];
    let mut step_first: Vec<Option<u32>> = vec![None; var_count as usize];
    steps
        .iter()
        .map(|step| {
            let carry: Vec<u32> = (0..var_count).filter(|&v| bound[v as usize]).collect();
            let mut keys = Vec::new();
            let mut binds: Vec<(u32, u32)> = Vec::new();
            let mut self_eqs = Vec::new();
            for s in step_first.iter_mut() {
                *s = None;
            }
            for (pos, &t) in step.pattern.args.iter().enumerate() {
                let pos = pos as u32;
                match t {
                    Term::Var(v) => {
                        let vi = v.index();
                        if bound[vi] {
                            keys.push((pos, KeySource::Var(v.0)));
                        } else if let Some(first) = step_first[vi] {
                            self_eqs.push((pos, first));
                        } else {
                            step_first[vi] = Some(pos);
                            binds.push((pos, v.0));
                        }
                    }
                    ground => keys.push((pos, KeySource::Ground(ground))),
                }
            }
            for &(_, v) in &binds {
                bound[v as usize] = true;
            }
            LaneStep {
                pred: step.pattern.pred,
                region: step.region,
                keys,
                binds,
                self_eqs,
                carry,
            }
        })
        .collect()
}

/// Pivot candidates per block of the batch executor: large enough to
/// amortize the per-block column resets and callback, small enough that
/// a block's frontier stays cache-resident through the cascade.
const BATCH_BLOCK: usize = 512;

/// Caller-owned scratch for batch (columnar) enumeration: the level-0
/// candidate buffer, the per-run intersection and pre-filtered bind
/// value buffers, the key assembly buffer, and the two ping-pong
/// frontier column sets (one `Vec<Term>` column per dense variable). One `BatchScratch` serves any number of
/// plans; recycling it across rounds keeps the batch path allocation-free
/// after warm-up, exactly like [`Scratch`] for the backtracking search.
#[derive(Debug, Default)]
pub struct BatchScratch {
    level0: Vec<AtomIdx>,
    isect: Vec<AtomIdx>,
    isect_tmp: Vec<AtomIdx>,
    key_terms: Vec<(u32, Term)>,
    bind_vals: Vec<Vec<Term>>,
    cols: [Vec<Vec<Term>>; 2],
}

impl BatchScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes both column sets to `var_count` columns.
    fn prepare(&mut self, var_count: u32) {
        for cols in &mut self.cols {
            cols.resize_with(var_count as usize, Vec::new);
        }
    }
}

/// One block of complete bindings materialized by the batch executor:
/// `rows` bindings in columnar layout, one column per dense variable.
/// Rows are in enumeration order (the backtracking search's order);
/// unbound variables (head existentials sharing the dense id space) read
/// as their placeholder `Term::Var`, exactly the placeholder form the
/// trigger pipeline expects.
#[derive(Debug)]
pub struct BindingBlock<'a> {
    cols: &'a [Vec<Term>],
    bound: &'a [bool],
    rows: usize,
}

impl BindingBlock<'_> {
    /// Number of binding rows in the block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The value of (pattern-bound) variable `v` at `row`.
    #[inline]
    pub fn var(&self, row: usize, v: VarId) -> Term {
        debug_assert!(self.bound[v.index()], "variable bound by the patterns");
        self.cols[v.index()][row]
    }

    /// The full column of (pattern-bound) variable `v`: `rows()` terms
    /// in row order. The batch emit pass gathers trigger keys
    /// column-wise through this instead of `rows × keys` `var` calls.
    #[inline]
    pub fn col(&self, v: VarId) -> &[Term] {
        debug_assert!(self.bound[v.index()], "variable bound by the patterns");
        &self.cols[v.index()][..self.rows]
    }

    /// Copies row `row` into `out` (cleared first) as a complete
    /// placeholder-form binding: bound variables carry their value,
    /// unbound slots their `Term::Var` placeholder — byte-identical to
    /// what the backtracking callback's binding produces under
    /// `t.unwrap_or(Term::Var(v))`.
    pub fn read_row(&self, row: usize, out: &mut Vec<Term>) {
        out.clear();
        out.extend(
            self.cols
                .iter()
                .zip(self.bound)
                .enumerate()
                .map(|(v, (col, &b))| {
                    if b {
                        col[row]
                    } else {
                        Term::Var(VarId(v as u32))
                    }
                }),
        );
    }
}

/// Splits the delta region `[delta_start, delta_end)` into contiguous
/// windows of at most `chunk` atoms (ascending, disjoint, exhaustive) —
/// the region partitioning consumed by `(rule, pivot, window)` task
/// units. Yields nothing for an empty delta. `chunk` must be nonzero.
///
/// The windows are a pure function of the delta bounds and `chunk` —
/// deliberately independent of the worker count, so any executor
/// processing them in `(pivot, window.lo)` order enumerates byte-identical
/// trigger sequences at any parallelism level.
pub fn delta_windows(
    delta_start: AtomIdx,
    delta_end: AtomIdx,
    chunk: u32,
) -> impl Iterator<Item = (AtomIdx, AtomIdx)> {
    assert!(chunk > 0, "chunk must be nonzero");
    (delta_start..delta_end)
        .step_by(chunk as usize)
        .map(move |lo| (lo, delta_end.min(lo.saturating_add(chunk))))
}

/// The backtracking search over one step list. Holds only borrows; all
/// mutable state lives in the caller's [`Scratch`]. The [`Region::New`]
/// window `[new_lo, new_hi)` is the pivot restriction (normally the whole
/// delta; a sub-window under parallel region partitioning), while
/// `delta_start` bounds [`Region::Old`].
struct Search<'a, 'b, F> {
    inst: &'a Instance,
    steps: &'a [Step],
    delta_start: AtomIdx,
    new_lo: AtomIdx,
    new_hi: AtomIdx,
    binding: &'b mut [Option<Term>],
    trail: &'b mut Vec<u32>,
    callback: &'b mut F,
}

/// Candidate posting list for `step` under the current binding: the
/// shortest (most selective) `(pred, position, term)` list over the
/// argument positions whose term is ground or bound. Returns `None` when
/// no position is keyable (callers fall back to the predicate scan). A
/// free function so the result borrows only from `inst`, not from the
/// search state.
fn candidates<'a>(
    inst: &'a Instance,
    step: &Step,
    binding: &[Option<Term>],
) -> Option<&'a [AtomIdx]> {
    let mut best: Option<&'a [AtomIdx]> = None;
    for (pos, &t) in step.pattern.args.iter().enumerate() {
        let key = match t {
            Term::Var(v) => match binding[v.index()] {
                Some(bound) => bound,
                None => continue,
            },
            ground => ground,
        };
        let list = inst.atoms_with_pred_term_at(step.pattern.pred, pos as u32, key);
        if best.is_none_or(|b| list.len() < b.len()) {
            best = Some(list);
            if list.is_empty() {
                break;
            }
        }
    }
    best
}

/// Above this many delta atoms, a [`Region::New`] fallback scan uses a
/// binary search on the predicate posting list instead of walking the
/// delta range directly. Small deltas — the steady state of a deep chase
/// — are cheaper to walk than to binary-search a six-figure posting list.
const DELTA_SCAN_LIMIT: AtomIdx = 1024;

impl<F> Search<'_, '_, F>
where
    F: FnMut(&[Option<Term>]) -> ControlFlow<()>,
{
    fn go(&mut self, k: usize) -> ControlFlow<()> {
        if k == self.steps.len() {
            return (self.callback)(self.binding);
        }
        // `inst` and `steps` live for 'a, independent of `self`, so
        // copying the references out keeps the mutable `self` calls below
        // legal.
        let inst = self.inst;
        let steps = self.steps;
        let step = &steps[k];
        let keyed = candidates(inst, step, self.binding);
        if keyed.is_none() && step.region == Region::New {
            let hi = self.new_hi.min(inst.len() as AtomIdx);
            if hi.saturating_sub(self.new_lo) <= DELTA_SCAN_LIMIT {
                // Walk the window range directly, filtering by predicate.
                for idx in self.new_lo..hi {
                    if inst.pred_of(idx) == step.pattern.pred {
                        self.try_candidate(inst, step, idx, k)?;
                    }
                }
                return ControlFlow::Continue(());
            }
        }
        let cands = keyed.unwrap_or_else(|| inst.atoms_with_pred(step.pattern.pred));
        // Posting lists are ascending, so region restriction is a split.
        let slice: &[AtomIdx] = match step.region {
            Region::All => cands,
            Region::Old => {
                let split = cands.partition_point(|&i| i < self.delta_start);
                &cands[..split]
            }
            Region::New => {
                let lo = cands.partition_point(|&i| i < self.new_lo);
                let hi = cands.partition_point(|&i| i < self.new_hi);
                &cands[lo..hi]
            }
        };
        for &idx in slice {
            self.try_candidate(inst, step, idx, k)?;
        }
        ControlFlow::Continue(())
    }

    /// Unifies candidate `idx` with the step's pattern; recurses on
    /// success; always restores the binding to its pre-call state.
    #[inline]
    fn try_candidate(
        &mut self,
        inst: &Instance,
        step: &Step,
        idx: AtomIdx,
        k: usize,
    ) -> ControlFlow<()> {
        let atom = inst.atom(idx);
        debug_assert_eq!(
            step.pattern.args.len(),
            atom.args.len(),
            "schema gives every predicate a fixed arity"
        );
        let mark = self.trail.len();
        for (&pt, &at) in step.pattern.args.iter().zip(atom.args.iter()) {
            match pt {
                Term::Var(v) => {
                    let slot = &mut self.binding[v.index()];
                    match *slot {
                        Some(bound) => {
                            if bound != at {
                                self.undo(mark);
                                return ControlFlow::Continue(());
                            }
                        }
                        None => {
                            *slot = Some(at);
                            self.trail.push(v.0);
                        }
                    }
                }
                ground => {
                    if ground != at {
                        self.undo(mark);
                        return ControlFlow::Continue(());
                    }
                }
            }
        }
        let flow = self.go(k + 1);
        self.undo(mark);
        flow
    }

    #[inline]
    fn undo(&mut self, mark: usize) {
        for &v in &self.trail[mark..] {
            self.binding[v as usize] = None;
        }
        self.trail.truncate(mark);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::{ConstId, PredId, VarId};

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }
    fn v(i: u32) -> Term {
        Term::Var(VarId(i))
    }
    fn atom(p: u32, args: Vec<Term>) -> Atom {
        Atom::new(PredId(p), args)
    }

    fn collect(plan: &MatchPlan, inst: &Instance) -> Vec<Vec<Option<Term>>> {
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        plan.for_each_hom(inst, &mut scratch, |b| {
            out.push(b.to_vec());
            ControlFlow::Continue(())
        });
        out
    }

    #[test]
    fn repeated_variables_key_distinct_position_lists() {
        // p(X, X, c1) over {p(c0, c2, c1)}: with X ↦ c0 bound, position 0
        // keys a non-empty list but position 1 keys the empty
        // (pred, 1, c0) list — the most-selective probe prunes the atom
        // without ever unifying it.
        let inst = Instance::from_atoms(vec![atom(0, vec![c(0), c(2), c(1)])]);
        assert!(inst.atoms_with_pred_term_at(PredId(0), 1, c(0)).is_empty());
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(0), c(1)])], 1);
        assert!(collect(&plan, &inst).is_empty());
        // And a genuinely diagonal atom still matches.
        let inst2 = Instance::from_atoms(vec![atom(0, vec![c(0), c(0), c(1)])]);
        assert_eq!(collect(&plan, &inst2), vec![vec![Some(c(0))]]);
    }

    #[test]
    fn position_aware_probe_skips_wrong_slot_candidates() {
        // e(X, Y), e(Y, Z): with Y bound, the second pattern probes the
        // (e, 0, Y) list, which excludes atoms carrying Y only at slot 1.
        let inst = Instance::from_atoms((0..3).map(|i| atom(0, vec![c(i), c(i + 1)])));
        assert_eq!(inst.atoms_with_pred_term_at(PredId(0), 0, c(1)), &[1]);
        assert_eq!(inst.atoms_with_pred_term_at(PredId(0), 1, c(1)), &[0]);
    }

    #[test]
    fn pivot_windows_partition_the_delta_homs() {
        // Build a chain, split it into old + delta, and check that the
        // (pivot, window) units reproduce for_each_hom_delta exactly.
        let mut inst = Instance::new();
        for i in 0..4 {
            inst.insert(atom(0, vec![c(i), c(i + 1)]));
        }
        let delta_start = inst.len() as AtomIdx;
        for i in 4..9 {
            inst.insert(atom(0, vec![c(i), c(i + 1)]));
        }
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])], 3);
        let mut scratch = Scratch::new();
        let mut reference = Vec::new();
        plan.for_each_hom_delta(&inst, delta_start, &mut scratch, |b| {
            reference.push(b.to_vec());
            ControlFlow::Continue(())
        });
        for chunk in [1u32, 2, 3, 16] {
            let mut windowed = Vec::new();
            for pivot in 0..plan.pivot_count() {
                for w in delta_windows(delta_start, inst.len() as AtomIdx, chunk) {
                    plan.for_each_hom_pivot(&inst, delta_start, pivot, w, &mut scratch, |b| {
                        windowed.push(b.to_vec());
                        ControlFlow::Continue(())
                    });
                }
            }
            assert_eq!(windowed, reference, "chunk {chunk}");
        }
    }

    #[test]
    fn pivot_zero_windows_partition_the_full_enumeration() {
        // delta_start == 0: pivot 0 over windows of [0, len) must equal
        // full enumeration; later pivots yield nothing (empty old region).
        let inst = Instance::from_atoms((0..5).map(|i| atom(0, vec![c(i), c(i + 1)])));
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])], 3);
        let mut scratch = Scratch::new();
        let reference = collect(&plan, &inst);
        let mut windowed = Vec::new();
        for w in delta_windows(0, inst.len() as AtomIdx, 2) {
            plan.for_each_hom_pivot(&inst, 0, 0, w, &mut scratch, |b| {
                windowed.push(b.to_vec());
                ControlFlow::Continue(())
            });
        }
        assert_eq!(windowed, reference);
        for pivot in 1..plan.pivot_count() {
            plan.for_each_hom_pivot(
                &inst,
                0,
                pivot,
                (0, inst.len() as AtomIdx),
                &mut scratch,
                |_| {
                    panic!("pivot {pivot} must be empty at delta_start 0");
                },
            );
        }
    }

    #[test]
    fn delta_windows_cover_exactly() {
        let ws: Vec<_> = delta_windows(3, 11, 3).collect();
        assert_eq!(ws, vec![(3, 6), (6, 9), (9, 11)]);
        assert_eq!(delta_windows(5, 5, 4).count(), 0);
        assert_eq!(delta_windows(0, 1, 1024).collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn join_finds_paths() {
        let inst = Instance::from_atoms((0..3).map(|i| atom(0, vec![c(i), c(i + 1)])));
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])], 3);
        let homs = collect(&plan, &inst);
        assert_eq!(homs.len(), 2);
    }

    #[test]
    fn selective_index_prunes_to_empty_lists() {
        // Pattern with a ground key absent from the instance: the search
        // must visit zero candidates.
        let inst = Instance::from_atoms(vec![atom(0, vec![c(0), c(1)])]);
        let plan = MatchPlan::compile(&[atom(0, vec![c(9), v(0)])], 1);
        assert!(collect(&plan, &inst).is_empty());
    }

    #[test]
    fn delta_pivots_cover_exactly_the_new_homs() {
        let mut inst = Instance::new();
        inst.insert(atom(0, vec![c(0), c(1)]));
        inst.insert(atom(0, vec![c(1), c(2)]));
        let delta_start = inst.len() as AtomIdx;
        inst.insert(atom(0, vec![c(2), c(3)]));
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])], 3);
        let mut scratch = Scratch::new();
        let mut homs = Vec::new();
        plan.for_each_hom_delta(&inst, delta_start, &mut scratch, |b| {
            homs.push(b.to_vec());
            ControlFlow::Continue(())
        });
        assert_eq!(homs, vec![vec![Some(c(1)), Some(c(2)), Some(c(3))]]);
    }

    #[test]
    fn seeded_search_respects_the_seed() {
        let inst = Instance::from_atoms((0..3).map(|i| atom(0, vec![c(i), c(i + 1)])));
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(1)])], 2);
        let mut scratch = Scratch::new();
        assert!(plan.exists_hom_seeded(&inst, &[Some(c(1)), None], &mut scratch));
        assert!(!plan.exists_hom_seeded(&inst, &[Some(c(9)), None], &mut scratch));
    }

    /// The placeholder form the trigger pipeline sees: bound slots carry
    /// their value, unbound slots their `Term::Var` placeholder.
    fn placeholder(b: &[Option<Term>]) -> Vec<Term> {
        b.iter()
            .enumerate()
            .map(|(v, t)| t.unwrap_or(Term::Var(VarId(v as u32))))
            .collect()
    }

    fn collect_pivot(
        plan: &MatchPlan,
        inst: &Instance,
        delta_start: AtomIdx,
        pivot: usize,
        window: (AtomIdx, AtomIdx),
    ) -> Vec<Vec<Term>> {
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        plan.for_each_hom_pivot(inst, delta_start, pivot, window, &mut scratch, |b| {
            out.push(placeholder(b));
            ControlFlow::Continue(())
        });
        out
    }

    fn collect_pivot_batch(
        plan: &MatchPlan,
        inst: &Instance,
        delta_start: AtomIdx,
        pivot: usize,
        window: (AtomIdx, AtomIdx),
        block_size: usize,
    ) -> Vec<Vec<Term>> {
        let mut bs = BatchScratch::new();
        let mut out = Vec::new();
        let mut row = Vec::new();
        let _ = plan.batch_pivot_sized(
            inst,
            delta_start,
            pivot,
            window,
            block_size,
            &mut bs,
            &mut |block: &BindingBlock<'_>| {
                for r in 0..block.rows() {
                    block.read_row(r, &mut row);
                    out.push(row.clone());
                }
                ControlFlow::Continue(())
            },
        );
        out
    }

    /// The full delta sweep through the lane programs — every pivot
    /// stage over the whole delta window, or pivot 0 over the whole
    /// instance on the first round — the batch counterpart of
    /// [`MatchPlan::for_each_hom_delta`].
    fn collect_delta_batch(
        plan: &MatchPlan,
        inst: &Instance,
        delta_start: AtomIdx,
    ) -> Vec<Vec<Term>> {
        let len = inst.len() as AtomIdx;
        let pivots = if delta_start == 0 {
            1
        } else {
            plan.pivot_count()
        };
        let mut out = Vec::new();
        for pivot in 0..pivots {
            out.extend(collect_pivot_batch(
                plan,
                inst,
                delta_start,
                pivot,
                (delta_start, len),
                BATCH_BLOCK,
            ));
        }
        out
    }

    #[test]
    fn batch_pivots_match_backtracking_on_chain_windows() {
        // Same shape as pivot_windows_partition_the_delta_homs, but
        // pinning the batch executor against the backtracking search for
        // every (pivot, window, block size) — content AND order.
        let mut inst = Instance::new();
        for i in 0..4 {
            inst.insert(atom(0, vec![c(i), c(i + 1)]));
        }
        let delta_start = inst.len() as AtomIdx;
        for i in 4..9 {
            inst.insert(atom(0, vec![c(i), c(i + 1)]));
        }
        let len = inst.len() as AtomIdx;
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])], 3);
        let mut any = 0usize;
        for chunk in [1u32, 2, 3, 16] {
            for pivot in 0..plan.pivot_count() {
                for w in delta_windows(delta_start, len, chunk) {
                    let reference = collect_pivot(&plan, &inst, delta_start, pivot, w);
                    any += reference.len();
                    for block_size in [1usize, 2, 3, 64] {
                        let batch =
                            collect_pivot_batch(&plan, &inst, delta_start, pivot, w, block_size);
                        assert_eq!(
                            batch, reference,
                            "pivot {pivot} window {w:?} block {block_size}"
                        );
                    }
                }
            }
        }
        assert!(any > 0, "the sweep must exercise nonempty windows");
    }

    #[test]
    fn batch_delta_sweep_matches_backtracking() {
        let mut inst = Instance::new();
        for i in 0..4 {
            inst.insert(atom(0, vec![c(i), c(i + 1)]));
        }
        let delta_start = inst.len() as AtomIdx;
        for i in 4..9 {
            inst.insert(atom(0, vec![c(i), c(i + 1)]));
        }
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])], 3);
        let mut scratch = Scratch::new();
        for ds in [delta_start, 0] {
            let mut reference = Vec::new();
            plan.for_each_hom_delta(&inst, ds, &mut scratch, |b| {
                reference.push(placeholder(b));
                ControlFlow::Continue(())
            });
            assert!(!reference.is_empty());
            assert_eq!(collect_delta_batch(&plan, &inst, ds), reference, "ds {ds}");
        }
    }

    #[test]
    fn batch_triangle_join_exercises_multi_key_intersection() {
        // e(X,Y), e(Y,Z), e(X,Z): the third step keys BOTH argument
        // positions (X and Z bound), so the batch path runs a genuine
        // posting-list intersection per row.
        let edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 0)];
        let mut inst = Instance::new();
        for &(a, b) in &edges[..3] {
            inst.insert(atom(0, vec![c(a), c(b)]));
        }
        let delta_start = inst.len() as AtomIdx;
        for &(a, b) in &edges[3..] {
            inst.insert(atom(0, vec![c(a), c(b)]));
        }
        let plan = MatchPlan::compile(
            &[
                atom(0, vec![v(0), v(1)]),
                atom(0, vec![v(1), v(2)]),
                atom(0, vec![v(0), v(2)]),
            ],
            3,
        );
        let mut scratch = Scratch::new();
        for ds in [0, delta_start] {
            let mut reference = Vec::new();
            plan.for_each_hom_delta(&inst, ds, &mut scratch, |b| {
                reference.push(placeholder(b));
                ControlFlow::Continue(())
            });
            assert!(reference.len() >= 2, "the graph must contain triangles");
            assert_eq!(collect_delta_batch(&plan, &inst, ds), reference, "ds {ds}");
        }
        // And across explicit windows with tiny blocks.
        let len = inst.len() as AtomIdx;
        for pivot in 0..plan.pivot_count() {
            for w in delta_windows(delta_start, len, 1) {
                let reference = collect_pivot(&plan, &inst, delta_start, pivot, w);
                assert_eq!(
                    collect_pivot_batch(&plan, &inst, delta_start, pivot, w, 1),
                    reference
                );
            }
        }
    }

    #[test]
    fn batch_handles_repeated_vars_ground_keys_and_existential_slots() {
        // p(X, X, c1) with an extra existential slot in the dense id
        // space: the batch row must carry the self-eq filter, the ground
        // key, and the untouched slot's Term::Var placeholder.
        let inst = Instance::from_atoms(vec![
            atom(0, vec![c(0), c(2), c(1)]), // fails the self-eq
            atom(0, vec![c(0), c(0), c(1)]), // matches
            atom(0, vec![c(3), c(3), c(2)]), // fails the ground key
            atom(0, vec![c(4), c(4), c(1)]), // matches
        ]);
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(0), c(1)])], 2);
        let batch = collect_delta_batch(&plan, &inst, 0);
        assert_eq!(
            batch,
            vec![
                vec![c(0), Term::Var(VarId(1))],
                vec![c(4), Term::Var(VarId(1))]
            ]
        );
        let mut scratch = Scratch::new();
        let mut reference = Vec::new();
        plan.for_each_hom(&inst, &mut scratch, |b| {
            reference.push(placeholder(b));
            ControlFlow::Continue(())
        });
        assert_eq!(batch, reference);
    }

    #[test]
    fn batch_counts_rows_for_fully_ground_patterns() {
        // A pattern with no variables binds no columns, so the row count
        // must come from an explicit counter, not a column length.
        let inst = Instance::from_atoms(vec![atom(0, vec![c(0), c(1)]), atom(0, vec![c(2), c(3)])]);
        let plan = MatchPlan::compile(&[atom(0, vec![c(0), c(1)])], 0);
        let batch = collect_delta_batch(&plan, &inst, 0);
        assert_eq!(batch, vec![Vec::<Term>::new()]);
    }

    #[test]
    fn batch_early_break_stops_after_the_block() {
        let inst = Instance::from_atoms((0..6).map(|i| atom(0, vec![c(i), c(i + 1)])));
        let plan = MatchPlan::compile(&[atom(0, vec![v(0), v(1)])], 2);
        let reference = collect_pivot(&plan, &inst, 0, 0, (0, inst.len() as AtomIdx));
        let mut bs = BatchScratch::new();
        let mut out = Vec::new();
        let mut row = Vec::new();
        let _ = plan.batch_pivot_sized(
            &inst,
            0,
            0,
            (0, inst.len() as AtomIdx),
            2,
            &mut bs,
            &mut |block: &BindingBlock<'_>| {
                for r in 0..block.rows() {
                    block.read_row(r, &mut row);
                    out.push(row.clone());
                }
                ControlFlow::Break(())
            },
        );
        assert_eq!(out.len(), 2, "one block of two pivot candidates");
        assert_eq!(out[..], reference[..2]);
    }

    #[test]
    fn scratch_is_reusable_across_plans() {
        let inst = Instance::from_atoms((0..5).map(|i| atom(0, vec![c(i), c(i + 1)])));
        let p1 = MatchPlan::compile(&[atom(0, vec![v(0), v(1)])], 2);
        let p2 = MatchPlan::compile(&[atom(0, vec![v(0), v(1)]), atom(0, vec![v(1), v(2)])], 3);
        let mut scratch = Scratch::new();
        let mut n1 = 0;
        p1.for_each_hom(&inst, &mut scratch, |_| {
            n1 += 1;
            ControlFlow::Continue(())
        });
        let mut n2 = 0;
        p2.for_each_hom(&inst, &mut scratch, |_| {
            n2 += 1;
            ControlFlow::Continue(())
        });
        assert_eq!((n1, n2), (5, 4));
    }
}
