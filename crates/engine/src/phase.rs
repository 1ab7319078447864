//! The phase split of a chase round, as a reusable API.
//!
//! A chase round factors into phases with very different contracts:
//!
//! 1. **Enumerate** (read-only): run every rule's [`MatchPlan`](nuchase_model::plan::MatchPlan) against
//!    the instance *as frozen at round start*, collecting the candidate
//!    triggers into [`TriggerBatch`]es. Nothing is mutated, so the phase
//!    shards freely over `(rule, pivot, window)` [`Task`] units: the
//!    round loop drains them in canonical order on the calling thread,
//!    and a wide round at `threads ≥ 2` shares them with the scheduler's
//!    helpers ([`crate::sched`]).
//! 2. **Apply**, itself a pipeline of four stages:
//!    * **merge** ([`merge_accepted`], serial): the authoritative trigger
//!      dedup against the per-rule fired sets, in canonical batch order,
//!      flattening the survivors into one accepted batch;
//!    * **plan** ([`plan_nulls`], serial but cheap): walk the accepted
//!      triggers in canonical order and fix every null id the round will
//!      use — interning for the semi-oblivious/oblivious chases,
//!      provisional range reservation for the restricted one — plus the
//!      frontier depths and the depth-budget verdict. Null identity
//!      depends only on `(σ, h|fr)`, never on the instance, so the plan
//!      is a pure function of the accepted order;
//!    * **resolve** ([`resolve_range`], read-only, parallelizable): the
//!      expensive half of firing — head instantiation into scratch
//!      arenas, atom hashing, containment pre-checks against the frozen
//!      snapshot, restricted-chase activeness against the snapshot,
//!      forest/provenance image lookups. Shards freely over accepted
//!      trigger ranges because it reads only the snapshot and the plan;
//!    * **commit** ([`commit_batch`], serial but thin): bulk-append the
//!      resolved atoms via [`Instance::extend_terms`] with deferred
//!      posting-list splicing, confirm the restricted activeness
//!      re-checks against the live instance, renumber provisional nulls
//!      past dropped triggers, record forest/provenance, enforce
//!      budgets.
//!
//! Dedup happens at **three** levels, and only the merge stage is
//! authoritative: the per-rule fired sets of *previous* rounds are frozen
//! during enumeration and consulted read-only (they filter the
//! overwhelming majority of repeat triggers allocation-free); a per-task
//! [`WorkerScratch::dedup`] arena filters repeats *within* one task
//! (deterministic, since a task's enumeration order is fixed); repeats
//! *across* tasks of the same round survive into the batches and are
//! resolved by the merge — in canonical order, so the surviving
//! occurrence, and hence every null and atom id, is the same at any
//! worker count.
//!
//! # Why byte-identity survives the split
//!
//! The pre-split engine interleaved null invention, instantiation, and
//! insertion per trigger; the pipeline hoists work out of that loop
//! without changing any observable:
//!
//! * null ids are a pure function of the accepted order (plan stage), so
//!   assigning them before instantiation cannot reorder them;
//! * a budget stop mid-commit truncates the optimistically planned null
//!   tail ([`NullStore::truncate`]), restoring the exact store the
//!   sequential interleaving would have left;
//! * a restricted trigger whose head is satisfied *by the snapshot* is
//!   dropped in resolve — sound because instances only grow — while one
//!   satisfied only by a same-round earlier commit is caught by the
//!   commit-time re-check, exactly where the interleaved engine caught
//!   it; restricted null ids are re-based at commit so dropped triggers
//!   consume none;
//! * body/guard images live in the snapshot (the body matched against
//!   it), so provenance and forest lookups resolve identically there.

use std::ops::ControlFlow;
use std::time::Instant;

use nuchase_model::hash::{hash_atom, hash_terms, PREFETCH_DIST};
use nuchase_model::plan::{delta_windows, Scratch};
use nuchase_model::{
    AtomIdx, BatchScratch, BindingBlock, IndexDelta, Instance, NullId, PredId, ProbeHint, RuleId,
    Term, Tgd, TgdSet, VarId,
};

use crate::chase::{
    ApplyPath, BatchEnum, ChaseConfig, ChaseOutcome, ChaseStats, ChaseVariant, ProbeFlow,
};
use crate::dedup::TermTupleSet;
use crate::forest::Forest;
use crate::nulls::NullStore;
use crate::provenance::{Derivation, Provenance};
use crate::sched::{Helpers, RESOLVE_POOL_MIN};
use crate::session::SessionCore;
use crate::telemetry::{RoundPath, Telemetry, TelemetryLevel, TelemetrySnapshot};

/// The trigger-key variables of a rule under a chase variant: the
/// frontier for the semi-oblivious chase (Definition 3.1), all body
/// variables for the oblivious and restricted ones.
pub fn key_vars(tgd: &Tgd, variant: ChaseVariant) -> &[VarId] {
    match variant {
        ChaseVariant::SemiOblivious => tgd.frontier(),
        ChaseVariant::Oblivious | ChaseVariant::Restricted => tgd.body_vars(),
    }
}

/// A batch of candidate triggers collected by the enumerate phase:
/// `(rule, binding)` pairs in one flat term arena. Unbound binding slots
/// (head existentials) hold the variable itself as a placeholder, exactly
/// as the apply pipeline expects.
#[derive(Debug, Default, Clone)]
pub struct TriggerBatch {
    rules: Vec<RuleId>,
    /// `offsets[i]..offsets[i+1]` is trigger `i`'s binding in `terms`.
    offsets: Vec<u32>,
    terms: Vec<Term>,
}

impl TriggerBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triggers in the batch.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Empties the batch, keeping its arena allocations.
    pub fn clear(&mut self) {
        self.rules.clear();
        self.offsets.clear();
        self.terms.clear();
    }

    /// Appends a trigger from a complete body match (`binding[v] = None`
    /// exactly for head existentials).
    pub fn push(&mut self, rule: RuleId, binding: &[Option<Term>]) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.terms.extend(
            binding
                .iter()
                .enumerate()
                .map(|(v, t)| t.unwrap_or(Term::Var(VarId(v as u32)))),
        );
        self.offsets.push(self.terms.len() as u32);
        self.rules.push(rule);
    }

    /// Appends a trigger whose binding is already in placeholder form
    /// (the merge stage copying an accepted trigger between batches).
    pub fn push_terms(&mut self, rule: RuleId, binding: &[Term]) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.terms.extend_from_slice(binding);
        self.offsets.push(self.terms.len() as u32);
        self.rules.push(rule);
    }

    /// The rule of the trigger at index `i` (cheaper than
    /// [`TriggerBatch::get`] when the binding is not needed).
    pub fn rule(&self, i: usize) -> RuleId {
        self.rules[i]
    }

    /// The trigger at index `i` as `(rule, binding)`.
    pub fn get(&self, i: usize) -> (RuleId, &[Term]) {
        (
            self.rules[i],
            &self.terms[self.offsets[i] as usize..self.offsets[i + 1] as usize],
        )
    }

    /// Iterates the triggers in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &[Term])> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Per-worker state for the sharded phases: one backtracking trail, one
/// trigger dedup arena (cleared per task), and the resolve-stage
/// buffers. A single `WorkerScratch` serves any number of enumerate
/// tasks and resolve ranges; reusing it is what keeps the worker loops
/// allocation-free after warm-up.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Match-plan backtracking state (shared by enumeration and the
    /// resolve stage's activeness pre-checks — the two never overlap on
    /// one worker).
    pub scratch: Scratch,
    /// Within-task trigger dedup (recycled between tasks).
    pub dedup: TermTupleSet,
    /// Trigger-key assembly buffer (also the merge/plan key buffer when
    /// the owner runs those serial stages).
    pub key_buf: Vec<Term>,
    /// Columnar buffers for batch (wide-round) enumeration, recycled
    /// across rounds like the backtracking `scratch`.
    pub batch_scratch: BatchScratch,
    /// Batch enumeration: the block collector's emit-pass buffers.
    emit_scratch: EmitScratch,
    /// Batch enumeration: row gather buffer (one placeholder-form
    /// binding, copied out of a [`BindingBlock`]).
    row_buf: Vec<Term>,
    /// Resolve stage: the trigger homomorphism μ under construction.
    mu: Vec<Term>,
    /// Resolve stage: guard/body image assembly buffer.
    atom_buf: Vec<Term>,
    /// Resolve stage: activeness seed buffer (restricted chase).
    seed_buf: Vec<Option<Term>>,
    /// Fused path: the per-trigger probe queue's instantiated head
    /// terms, one flat arena (offsets in `head_meta`).
    head_flat: Vec<Term>,
    /// Fused path: `(start into head_flat, atom hash)` per head atom.
    head_meta: Vec<(u32, u64)>,
}

impl WorkerScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the probe-locality gauges the batch collectors accumulated
    /// here since the last drain (see [`ProbeFlow`]); the round drivers
    /// fold the result into [`ChaseStats::note_probe_flow`].
    pub fn take_probes(&mut self) -> ProbeFlow {
        std::mem::take(&mut self.emit_scratch.flow)
    }
}

/// Scratch for [`block_collector`]'s vectorized emit passes (recycled
/// across blocks; sized by the widest block seen).
#[derive(Debug, Default)]
struct EmitScratch {
    /// Row-major trigger-key assembly: `rows × keys.len()` terms.
    keys_flat: Vec<Term>,
    /// One [`hash_terms`] result per row.
    hash_buf: Vec<u64>,
    /// Rows that survived the unit-local dedup, in row order.
    surv: Vec<u32>,
    /// Per-row accept flags out of [`TermTupleSet::insert_batch`].
    accept: Vec<bool>,
    /// Survivor keys gathered row-major for the fired-set batch probe.
    gkeys: Vec<Term>,
    /// Survivor hashes, parallel to `gkeys` rows.
    ghash: Vec<u64>,
    /// Per-survivor presence flags out of [`TermTupleSet::locate_batch`].
    present: Vec<bool>,
    /// Probe-locality gauges accumulated across blocks
    /// ([`WorkerScratch::take_probes`] drains them).
    flow: ProbeFlow,
}

/// One unit of enumerate-phase work: run one pivot stage of one rule's
/// match plan with the pivot restricted to a window of the delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Task {
    /// The rule whose body to match.
    pub rule: RuleId,
    /// The pivot stage (index into the rule body).
    pub pivot: u32,
    /// The pivot's atom-index window, a sub-range of the delta.
    pub window: (AtomIdx, AtomIdx),
}

/// Target number of pivot atoms per task window. Small enough that a
/// skewed round still splits into more tasks than workers (load balance),
/// large enough that per-task overhead (queue pop, dedup clear, batch
/// publish) stays invisible. Must not depend on the worker count, or
/// determinism across thread counts would be lost.
const TASK_CHUNK: u32 = 2048;

/// Builds the canonical task list of a round over `tasks` (cleared
/// first): rules in id order, pivots in stage order, windows ascending —
/// the canonical trigger order, whoever drains the units. At
/// `delta_start == 0` (the first round)
/// only pivot 0 is emitted per rule: the old region is empty, so every
/// later stage is a no-op by construction.
pub fn round_tasks(tgds: &TgdSet, delta_start: AtomIdx, len: AtomIdx, tasks: &mut Vec<Task>) {
    tasks.clear();
    if delta_start >= len {
        return;
    }
    for (rule, tgd) in tgds.iter() {
        let pivots = if delta_start == 0 {
            1
        } else {
            tgd.body_plan().pivot_count()
        };
        for pivot in 0..pivots {
            for window in delta_windows(delta_start, len, TASK_CHUNK) {
                tasks.push(Task {
                    rule,
                    pivot: pivot as u32,
                    window,
                });
            }
        }
    }
}

/// The read-only context of one round's enumerate phase — everything a
/// worker needs besides the instance and its own scratch, frozen for the
/// phase's duration.
#[derive(Clone, Copy, Debug)]
pub struct RoundCtx<'a> {
    /// The rule set.
    pub tgds: &'a TgdSet,
    /// The chase variant (decides the trigger-key variables).
    pub variant: ChaseVariant,
    /// First atom index of the round's delta.
    pub delta_start: AtomIdx,
}

/// The per-binding collection step shared by every enumerator: count the
/// homomorphism, assemble its trigger key, and push it into `batch`
/// unless the frozen `fired` set (previous rounds) or the unit-local
/// `dedup` arena has seen the key. One definition, so the dedup contract
/// cannot silently diverge between enumerators.
fn trigger_collector<'a>(
    rule: RuleId,
    keys: &'a [VarId],
    fired: &'a TermTupleSet,
    dedup: &'a mut TermTupleSet,
    key_buf: &'a mut Vec<Term>,
    batch: &'a mut TriggerBatch,
    considered: &'a mut usize,
) -> impl FnMut(&[Option<Term>]) -> ControlFlow<()> + 'a {
    move |binding| {
        *considered += 1;
        key_buf.clear();
        key_buf.extend(
            keys.iter()
                .map(|v| binding[v.index()].expect("body variable bound")),
        );
        if !fired.contains(key_buf) && dedup.insert(key_buf) {
            batch.push(rule, binding);
        }
        ControlFlow::Continue(())
    }
}

/// Runs one [`Task`]: enumerates its homomorphisms, filters triggers
/// against the frozen `fired` set of previous rounds and the task-local
/// dedup arena, and appends survivors to `batch` (not cleared). Returns
/// the number of homomorphisms considered.
///
/// `fired` must be the per-rule fired set for `task.rule`, frozen for the
/// duration of the phase (the merge stage owns its mutation).
pub fn enumerate_task(
    instance: &Instance,
    ctx: RoundCtx<'_>,
    task: Task,
    fired: &TermTupleSet,
    ws: &mut WorkerScratch,
    batch: &mut TriggerBatch,
) -> usize {
    // Fault site: fires before any enumeration work, so a failed task
    // leaves no partial output behind.
    crate::fault::check(crate::fault::FaultSite::WorkerTask);
    let tgd = ctx.tgds.get(task.rule);
    let keys = key_vars(tgd, ctx.variant);
    let WorkerScratch {
        scratch,
        dedup,
        key_buf,
        ..
    } = ws;
    dedup.clear();
    let mut considered = 0usize;
    tgd.body_plan().for_each_hom_pivot(
        instance,
        ctx.delta_start,
        task.pivot as usize,
        task.window,
        scratch,
        trigger_collector(
            task.rule,
            keys,
            fired,
            dedup,
            key_buf,
            batch,
            &mut considered,
        ),
    );
    considered
}

/// The per-**block** collection step of the batch enumerators: three
/// vectorized passes over the block — assemble-and-hash every row's
/// trigger key, run all rows through the unit-local dedup, then probe
/// the frozen fired set for the first occurrences only — accepting the
/// exact rows the [`trigger_collector`] contract accepts, in the same
/// order, so the two paths deliver byte-identical trigger sequences.
/// The span spent inside each block (dedup + emission) accrues into
/// `emit_secs`; the caller's enumerate lap minus that sum is the probe
/// time.
#[allow(clippy::too_many_arguments)]
fn block_collector<'a>(
    rule: RuleId,
    keys: &'a [VarId],
    fired: &'a TermTupleSet,
    dedup: &'a mut TermTupleSet,
    row_buf: &'a mut Vec<Term>,
    es: &'a mut EmitScratch,
    batch: &'a mut TriggerBatch,
    considered: &'a mut usize,
    emit_secs: &'a mut f64,
) -> impl FnMut(&BindingBlock<'_>) -> ControlFlow<()> + 'a {
    move |block| {
        let t0 = Instant::now();
        let rows = block.rows();
        *considered += rows;
        let k = keys.len();
        if k == 0 {
            // Keyless rules (fully ground bodies): one trigger fires per
            // round at most; the vectorized passes assume a positive key
            // stride, so take the scalar route.
            for row in 0..rows {
                if !fired.contains(&[]) && dedup.insert(&[]) {
                    block.read_row(row, row_buf);
                    batch.push_terms(rule, row_buf);
                }
            }
            *emit_secs += t0.elapsed().as_secs_f64();
            return ControlFlow::Continue(());
        }
        let EmitScratch {
            keys_flat,
            hash_buf,
            surv,
            accept,
            gkeys,
            ghash,
            present,
            flow,
        } = es;
        // Pass 1: gather every row's trigger key (column-wise, one
        // sequential sweep per key variable) and hash it once — pure
        // compute, no table traffic. The per-trigger collector hashes
        // each key twice (contains + insert).
        if keys_flat.len() < rows * k {
            keys_flat.resize(rows * k, Term::Var(VarId(0)));
        }
        let kf = &mut keys_flat[..rows * k];
        for (j, &v) in keys.iter().enumerate() {
            for (dst, &t) in kf.iter_mut().skip(j).step_by(k).zip(block.col(v)) {
                *dst = t;
            }
        }
        let kf = &keys_flat[..rows * k];
        hash_buf.clear();
        hash_buf.extend(kf.chunks_exact(k).map(hash_terms));
        // Pass 2: unit-local dedup first. The per-trigger collector
        // probes `fired` first and the dedup arena second; flipping the
        // order accepts the exact same rows (accept ⇔ first occurrence
        // of the key in this task ∧ key not fired), but routes every row
        // through the small, cache-hot task-local table and saves the
        // big-table `fired` probe for first occurrences only — in a
        // saturated wide round almost every row is an intra-round
        // duplicate. The batched insert bins rows by table partition and
        // runs a fixed prefetch distance ahead inside each bin, so the
        // probes' random-access misses overlap; the per-row accept flags
        // come back in original row order, so the accept sequence is the
        // scalar loop's exactly.
        flow.batched_probes += dedup.insert_batch(kf, k, hash_buf, accept);
        flow.queue_depth = flow.queue_depth.max(PREFETCH_DIST.min(rows));
        surv.clear();
        surv.extend((0..rows as u32).filter(|&row| accept[row as usize]));
        // Pass 3: first occurrences (few, once the chase saturates)
        // probe the frozen fired set — gathered into a dense survivor
        // batch so the binned probe pass touches only live rows — and
        // materialize the misses into the batch in row order, preserving
        // the per-trigger path's exact accept sequence.
        gkeys.clear();
        ghash.clear();
        for &row in surv.iter() {
            let row = row as usize;
            gkeys.extend_from_slice(&kf[row * k..(row + 1) * k]);
            ghash.push(hash_buf[row]);
        }
        flow.batched_probes += fired.locate_batch(gkeys, k, ghash, present);
        for (i, &row) in surv.iter().enumerate() {
            if !present[i] {
                block.read_row(row as usize, row_buf);
                batch.push_terms(rule, row_buf);
            }
        }
        *emit_secs += t0.elapsed().as_secs_f64();
        ControlFlow::Continue(())
    }
}

/// [`enumerate_task`] through the batch (columnar) enumeration path:
/// the pivot window runs as a lane program
/// ([`MatchPlan::for_each_hom_pivot_batch`](nuchase_model::MatchPlan::for_each_hom_pivot_batch)),
/// candidate bindings land in block-sized columnar buffers, and each
/// block drains through the same three-level dedup contract. Trigger
/// sequence, `considered` count, and batch bytes are identical to the
/// per-trigger path — pinned by the forced-path differential sweeps.
/// Block-drain time accrues into `emit_secs`.
pub fn enumerate_task_batch(
    instance: &Instance,
    ctx: RoundCtx<'_>,
    task: Task,
    fired: &TermTupleSet,
    ws: &mut WorkerScratch,
    batch: &mut TriggerBatch,
    emit_secs: &mut f64,
) -> usize {
    // Fault site: fires before any enumeration work, so a failed task
    // leaves no partial output behind.
    crate::fault::check(crate::fault::FaultSite::WorkerTask);
    let tgd = ctx.tgds.get(task.rule);
    let keys = key_vars(tgd, ctx.variant);
    let WorkerScratch {
        dedup,
        batch_scratch,
        row_buf,
        emit_scratch,
        ..
    } = ws;
    dedup.clear();
    let mut considered = 0usize;
    tgd.body_plan().for_each_hom_pivot_batch(
        instance,
        ctx.delta_start,
        task.pivot as usize,
        task.window,
        batch_scratch,
        block_collector(
            task.rule,
            keys,
            fired,
            dedup,
            row_buf,
            emit_scratch,
            batch,
            &mut considered,
            emit_secs,
        ),
    );
    considered
}

/// The **eager** collection step of a fused micro-round: the candidate
/// key goes straight into the *authoritative* (mutable) fired set — one
/// probe instead of the frozen-read + arena-insert + later-merge-insert
/// of the staged contract. Sound only for a serial enumerator walking
/// tasks in canonical order (the fused path's precondition), where
/// "first insert wins" coincides with the merge's canonical-order
/// outcome; the batch comes out pre-merged.
fn trigger_collector_eager<'a>(
    rule: RuleId,
    keys: &'a [VarId],
    fired: &'a mut TermTupleSet,
    key_buf: &'a mut Vec<Term>,
    batch: &'a mut TriggerBatch,
    considered: &'a mut usize,
) -> impl FnMut(&[Option<Term>]) -> ControlFlow<()> + 'a {
    move |binding| {
        *considered += 1;
        key_buf.clear();
        key_buf.extend(
            keys.iter()
                .map(|v| binding[v.index()].expect("body variable bound")),
        );
        if fired.insert(key_buf) {
            batch.push(rule, binding);
        }
        ControlFlow::Continue(())
    }
}

/// [`enumerate_task`] with the eager dedup of a fused micro-round:
/// filters and *commits* trigger keys against the mutable authoritative
/// `fired` set in one probe, appending the (pre-merged) survivors to
/// `batch`, so the batch needs no merge stage. Tasks must be drained
/// serially in canonical order — cross-task duplicates die here instead
/// of at the merge, on the same first occurrence.
pub fn enumerate_task_eager(
    instance: &Instance,
    ctx: RoundCtx<'_>,
    task: Task,
    fired: &mut TermTupleSet,
    ws: &mut WorkerScratch,
    batch: &mut TriggerBatch,
) -> usize {
    // Fault site: fires before any enumeration work, so a failed task
    // leaves no partial output behind.
    crate::fault::check(crate::fault::FaultSite::WorkerTask);
    let tgd = ctx.tgds.get(task.rule);
    let keys = key_vars(tgd, ctx.variant);
    let WorkerScratch {
        scratch, key_buf, ..
    } = ws;
    let mut considered = 0usize;
    tgd.body_plan().for_each_hom_pivot(
        instance,
        ctx.delta_start,
        task.pivot as usize,
        task.window,
        scratch,
        trigger_collector_eager(task.rule, keys, fired, key_buf, batch, &mut considered),
    );
    considered
}

/// Stage 1 of the apply pipeline — the authoritative dedup **merge**:
/// one `insert` into the per-rule fired sets per trigger, in canonical
/// batch order, flattening the survivors into `accepted` (cleared
/// first). Keys are instance-independent, so deciding them up front
/// cannot diverge from the interleaved sequential formulation.
pub fn merge_accepted<'a>(
    tgds: &TgdSet,
    variant: ChaseVariant,
    batches: impl IntoIterator<Item = &'a TriggerBatch>,
    fired: &mut [TermTupleSet],
    key_buf: &mut Vec<Term>,
    accepted: &mut TriggerBatch,
) {
    accepted.clear();
    for batch in batches {
        for (rule, binding) in batch.iter() {
            let tgd = tgds.get(rule);
            key_buf.clear();
            key_buf.extend(key_vars(tgd, variant).iter().map(|v| {
                let t = binding[v.index()];
                debug_assert!(!t.is_var(), "body variable bound");
                t
            }));
            if fired[rule.index()].insert(key_buf) {
                accepted.push_terms(rule, binding);
            }
        }
    }
}

/// Stage 2 of the apply pipeline — the **deterministic null id plan**:
/// every null id the round will use, fixed in canonical accepted order
/// before any parallel work starts, so the resolve stage needs no lock
/// on the [`NullStore`] (workers read the plan, never the store).
///
/// For the semi-oblivious/oblivious chases the plan *is* the interning:
/// ids are real, assigned (or found) in accepted order exactly as the
/// interleaved engine would. For the restricted chase — whose nulls are
/// fresh per *firing*, and whose firings the commit stage decides — the
/// plan reserves a provisional id range per trigger, re-based at commit
/// past dropped triggers.
#[derive(Debug, Default)]
pub struct NullPlan {
    /// Existential images, trigger `i`'s at
    /// `ex_offsets[i]..ex_offsets[i+1]`, in `tgd.existentials()` order.
    ex_terms: Vec<Term>,
    ex_offsets: Vec<u32>,
    /// Frontier depth per planned trigger (Definition 4.3 input).
    frontier_depths: Vec<u32>,
    /// Null-store length after planning trigger `i` — the truncation
    /// point when a budget stops the commit at that trigger.
    watermarks: Vec<u32>,
    /// Null-store length at plan start (provisional ids count from here).
    base: u32,
    /// Outcome decided at plan time (depth budget), owed by the commit
    /// stage after the planned prefix lands.
    pending: Option<ChaseOutcome>,
}

impl NullPlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of planned triggers — the prefix of the accepted batch the
    /// commit stage will walk (shorter than the batch only when the
    /// depth budget stopped the plan).
    pub fn planned(&self) -> usize {
        self.frontier_depths.len()
    }

    /// The outcome the commit stage must return after the planned prefix
    /// lands, if the plan stopped early.
    pub fn pending(&self) -> Option<ChaseOutcome> {
        self.pending.clone()
    }

    fn clear(&mut self) {
        self.ex_terms.clear();
        self.ex_offsets.clear();
        self.ex_offsets.push(0);
        self.frontier_depths.clear();
        self.watermarks.clear();
        self.base = 0;
        self.pending = None;
    }

    /// Existential image `k` of accepted trigger `i`.
    fn ex_term(&self, i: u32, k: usize) -> Term {
        self.ex_terms[self.ex_offsets[i as usize] as usize + k]
    }

    /// First provisional null id of accepted trigger `i` (restricted).
    fn provisional_base(&self, i: u32) -> u32 {
        self.base + self.ex_offsets[i as usize]
    }

    /// Frontier depth of accepted trigger `i`.
    fn frontier_depth(&self, i: u32) -> u32 {
        self.frontier_depths[i as usize]
    }

    /// Truncation point for a budget stop at accepted trigger `i`.
    fn watermark(&self, i: u32) -> u32 {
        self.watermarks[i as usize]
    }

    /// Nulls newly interned while planning accepted trigger `i`
    /// (telemetry attribution; zero for re-interned names).
    fn nulls_of(&self, i: u32) -> u32 {
        let prev = if i == 0 {
            self.base
        } else {
            self.watermarks[i as usize - 1]
        };
        self.watermarks[i as usize].saturating_sub(prev)
    }
}

/// Builds the round's [`NullPlan`] over the accepted batch (see the type
/// docs for the contract). Serial and cheap: per trigger, a frontier
/// depth fold plus one interning probe per existential — the heavy
/// per-trigger work (instantiation, hashing, containment) is what the
/// plan unlocks for the parallel resolve stage.
pub fn plan_nulls(
    tgds: &TgdSet,
    config: &ChaseConfig,
    nulls: &mut NullStore,
    accepted: &TriggerBatch,
    key_buf: &mut Vec<Term>,
    plan: &mut NullPlan,
) {
    plan.clear();
    plan.base = nulls.len() as u32;
    let mut provisional = plan.base;
    for (rule, binding) in accepted.iter() {
        let tgd = tgds.get(rule);
        let frontier_depth = nulls.max_frontier_depth(tgd.frontier(), binding);
        match config.variant {
            ChaseVariant::Restricted => {
                // Fresh nulls are assigned at commit (firing is decided
                // there); reserve the provisional range. The depth budget
                // is also a commit-stage concern: the interleaved engine
                // checks it only on triggers that survive activeness.
                for _ in tgd.existentials() {
                    plan.ex_terms.push(Term::Null(NullId(provisional)));
                    provisional += 1;
                }
            }
            ChaseVariant::SemiOblivious | ChaseVariant::Oblivious => {
                if let Some(max_d) = config.budget.max_depth {
                    if !tgd.existentials().is_empty() && frontier_depth + 1 > max_d {
                        plan.pending = Some(ChaseOutcome::DepthLimit);
                        break;
                    }
                }
                if !tgd.existentials().is_empty() {
                    key_buf.clear();
                    let name_vars = match config.variant {
                        ChaseVariant::Oblivious => tgd.body_vars(),
                        _ => tgd.frontier(),
                    };
                    key_buf.extend(name_vars.iter().map(|v| binding[v.index()]));
                    for &z in tgd.existentials() {
                        let null = nulls.intern_parts(rule, z, key_buf, frontier_depth);
                        plan.ex_terms.push(Term::Null(null));
                    }
                }
            }
        }
        plan.ex_offsets.push(plan.ex_terms.len() as u32);
        plan.frontier_depths.push(frontier_depth);
        plan.watermarks.push(nulls.len() as u32);
    }
}

/// Stage 3 output: one range of accepted triggers, fully resolved
/// against the frozen snapshot — instantiated head atoms with
/// precomputed hashes and containment verdicts, snapshot activeness,
/// forest/provenance images — everything the thin commit loop needs.
/// Pure data (`Send`), recyclable across rounds.
#[derive(Debug, Default)]
pub struct ResolvedBatch {
    /// Global accepted-trigger range `[start, end)` this batch covers.
    start: u32,
    end: u32,
    /// Per local trigger: head-atom range `atom_offsets[i]..[i+1]`.
    atom_offsets: Vec<u32>,
    /// Per local trigger: definitively inactive at the snapshot
    /// (restricted chase only; such triggers commit nothing).
    inactive: Vec<bool>,
    /// Per local trigger: the guard image (forest parent), when the run
    /// records the forest.
    parents: Vec<Option<AtomIdx>>,
    /// Per local trigger: body-image range in `deriv_bodies`, when the
    /// run records provenance.
    deriv_offsets: Vec<u32>,
    deriv_bodies: Vec<AtomIdx>,
    /// Per head atom: predicate, argument range, hash, and the snapshot
    /// containment verdict — `Ok(index)` when the atom already exists
    /// there (still present at commit: instances only grow), `Err(hint)`
    /// with the probe resumption point otherwise.
    preds: Vec<PredId>,
    term_offsets: Vec<u32>,
    terms: Vec<Term>,
    hashes: Vec<u64>,
    snap: Vec<Result<AtomIdx, ProbeHint>>,
}

impl ResolvedBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// First accepted-trigger index the batch covers (its canonical sort
    /// key when merging per-range worker outputs).
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Empties the batch, keeping its arena allocations.
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
        self.atom_offsets.clear();
        self.inactive.clear();
        self.parents.clear();
        self.deriv_offsets.clear();
        self.deriv_bodies.clear();
        self.preds.clear();
        self.term_offsets.clear();
        self.terms.clear();
        self.hashes.clear();
        self.snap.clear();
    }

    fn trigger_count(&self) -> u32 {
        self.end - self.start
    }

    fn atom_range(&self, li: u32) -> std::ops::Range<usize> {
        let li = li as usize;
        self.atom_offsets[li] as usize..self.atom_offsets[li + 1] as usize
    }

    fn deriv_bodies_of(&self, li: u32) -> &[AtomIdx] {
        let li = li as usize;
        &self.deriv_bodies[self.deriv_offsets[li] as usize..self.deriv_offsets[li + 1] as usize]
    }

    fn atom_terms(&self, ai: usize) -> &[Term] {
        &self.terms[self.term_offsets[ai] as usize..self.term_offsets[ai + 1] as usize]
    }
}

/// Stage 3 of the apply pipeline — **resolve** one range of accepted
/// triggers against the frozen `instance` snapshot into `out` (cleared
/// first). Reads only the snapshot, the accepted batch, and the plan —
/// all frozen for the stage — so ranges shard freely across workers and
/// the concatenation of per-range outputs (in range order) is identical
/// at any worker count.
#[allow(clippy::too_many_arguments)]
pub fn resolve_range(
    instance: &Instance,
    tgds: &TgdSet,
    config: &ChaseConfig,
    accepted: &TriggerBatch,
    plan: &NullPlan,
    range: (u32, u32),
    ws: &mut WorkerScratch,
    out: &mut ResolvedBatch,
) {
    out.clear();
    out.start = range.0;
    out.end = range.1;
    out.atom_offsets.push(0);
    out.deriv_offsets.push(0);
    out.term_offsets.push(0);
    for i in range.0..range.1 {
        let (rule, binding) = accepted.get(i as usize);
        let tgd = tgds.get(rule);

        if config.variant == ChaseVariant::Restricted {
            // Activeness against the snapshot. A satisfied head stays
            // satisfied (instances only grow), so this drop is
            // definitive; the converse — satisfied only by a same-round
            // earlier commit — is the commit stage's re-check.
            frontier_seed(tgd, binding, &mut ws.seed_buf);
            if tgd
                .head_plan()
                .exists_hom_seeded(instance, &ws.seed_buf, &mut ws.scratch)
            {
                out.inactive.push(true);
                out.atom_offsets.push(out.preds.len() as u32);
                out.deriv_offsets.push(out.deriv_bodies.len() as u32);
                if config.build_forest {
                    out.parents.push(None);
                }
                continue;
            }
        }
        out.inactive.push(false);

        // μ: the binding with existential slots filled from the plan.
        ws.mu.clear();
        ws.mu.extend_from_slice(binding);
        for (k, &z) in tgd.existentials().iter().enumerate() {
            ws.mu[z.index()] = plan.ex_term(i, k);
        }

        // Guard image for the forest: a body atom, hence in the snapshot.
        if config.build_forest {
            let parent = tgd.guard().and_then(|g| {
                instantiate_into(g, &ws.mu, &mut ws.atom_buf);
                instance.index_of_terms(g.pred, &ws.atom_buf)
            });
            out.parents.push(parent);
        }
        // Body images for provenance — in the snapshot for the same
        // reason.
        if config.record_provenance {
            for b in tgd.body() {
                instantiate_into(b, &ws.mu, &mut ws.atom_buf);
                out.deriv_bodies.push(
                    instance
                        .index_of_terms(b.pred, &ws.atom_buf)
                        .expect("body image is in the instance"),
                );
            }
        }
        out.deriv_offsets.push(out.deriv_bodies.len() as u32);

        // Head atoms: instantiate straight into the arena, hash once,
        // pre-check containment against the snapshot with that hash.
        for head_atom in tgd.head() {
            let t0 = out.terms.len();
            out.terms.extend(head_atom.args.iter().map(|&t| match t {
                Term::Var(v) => ws.mu[v.index()],
                ground => ground,
            }));
            let args = &out.terms[t0..];
            let hash = hash_atom(head_atom.pred, args);
            out.preds.push(head_atom.pred);
            out.hashes.push(hash);
            out.snap
                .push(instance.locate_terms_hashed(head_atom.pred, args, hash));
            out.term_offsets.push(out.terms.len() as u32);
        }
        out.atom_offsets.push(out.preds.len() as u32);
    }
}

/// Everything the commit stage accumulates across rounds, plus its
/// scratch buffers. Owned by the single committing thread.
#[derive(Debug)]
pub struct ApplyState {
    /// Null provenance and depth store.
    pub nulls: NullStore,
    /// The guarded chase forest, if requested.
    pub forest: Option<Forest>,
    /// Per-atom derivation provenance, if requested.
    pub provenance: Option<Provenance>,
    /// The run's telemetry collector ([`crate::telemetry`]); `None` at
    /// [`TelemetryLevel::Off`], so disabled runs pay one pointer test
    /// per hook. Telemetry only observes — it never feeds back into
    /// engine decisions — so results are byte-identical at every level.
    pub(crate) telemetry: Option<Box<Telemetry>>,
    /// Deferred posting-list updates of the current commit.
    delta: IndexDelta,
    head_scratch: Scratch,
    seed_buf: Vec<Option<Term>>,
    atom_buf: Vec<Term>,
}

impl ApplyState {
    /// Creates the apply-side state for a chase over a database of
    /// `database_atoms` atoms.
    pub fn new(config: &ChaseConfig, database_atoms: usize) -> Self {
        let level = resolved_telemetry(config);
        ApplyState {
            nulls: NullStore::new(),
            forest: config
                .build_forest
                .then(|| Forest::with_roots(database_atoms)),
            provenance: config
                .record_provenance
                .then(|| Provenance::with_roots(database_atoms)),
            telemetry: level.enabled().then(|| Box::new(Telemetry::new(level))),
            delta: IndexDelta::new(),
            head_scratch: Scratch::new(),
            seed_buf: Vec::new(),
            atom_buf: Vec::new(),
        }
    }

    /// Rebaselines the telemetry ring for a new run slice (no-op when
    /// telemetry is off): per-run stats counters restart at zero, and
    /// `rounds_base` keeps recorded round numbers monotonic across a
    /// session's resumes.
    #[inline]
    pub fn begin_run_telemetry(&mut self, rounds_base: usize) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.begin_run(rounds_base);
        }
    }

    /// Records `considered` enumerated triggers for `rule` (telemetry
    /// hook; no-op when telemetry is off).
    #[inline]
    pub fn note_considered(&mut self, rule: RuleId, considered: usize) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.rule_considered(rule.index(), considered);
        }
    }

    /// Records sampled per-rule enumeration seconds (telemetry hook,
    /// [`TelemetryLevel::Full`] rounds only).
    #[inline]
    pub fn note_rule_secs(&mut self, rule: RuleId, secs: f64) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            t.rule_sampled_secs(rule.index(), secs);
        }
    }

    /// Should this round's per-rule enumeration be clock-sampled?
    /// (False unless telemetry is at [`TelemetryLevel::Full`] and this
    /// is a ring-sampled round.)
    #[inline]
    pub fn sample_rule_timing(&self) -> bool {
        self.telemetry.as_ref().is_some_and(|t| t.sample_timing())
    }

    /// Records a finished round into the telemetry ring (no-op when
    /// telemetry is off). `instance_len` is the instance size after the
    /// round; `stats` must already carry the round's laps.
    #[inline]
    pub fn record_round(
        &mut self,
        round: usize,
        path: RoundPath,
        delta: usize,
        instance_len: usize,
        stats: &ChaseStats,
    ) {
        if let Some(t) = self.telemetry.as_deref_mut() {
            let nulls_len = self.nulls.len();
            t.record_round(round, path, delta, instance_len, nulls_len, stats);
        }
    }

    /// Freezes the collector into an exportable snapshot (`None` when
    /// telemetry is off).
    pub fn telemetry_snapshot(&self, stats: &ChaseStats) -> Option<TelemetrySnapshot> {
        self.telemetry.as_ref().map(|t| t.snapshot(stats))
    }
}

/// The per-driver round buffers of the apply pipeline: the flattened
/// accepted batch, its null plan, and (for inline resolution) one
/// resolved batch. Separate from [`ApplyState`] so a shared resolve stage
/// can lend `accepted`/`plan` to its helpers while the commit state stays
/// with the calling thread.
#[derive(Debug, Default)]
pub struct ApplyBuffers {
    /// The round's accepted triggers, in canonical order.
    pub accepted: TriggerBatch,
    /// The round's null id plan.
    pub plan: NullPlan,
    /// Inline-resolve output (unused when a pool resolves).
    pub resolved: ResolvedBatch,
}

impl ApplyBuffers {
    /// Creates empty buffers.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Stage 4 of the apply pipeline — the serial **commit** loop, now thin:
/// walk the resolved batches in canonical order and, per surviving
/// trigger, bulk-append its pre-instantiated atoms with their
/// precomputed hashes ([`Instance::extend_terms`], posting-list splicing
/// deferred to one batch-end pass), confirm the restricted activeness
/// re-check against the live instance, re-base provisional nulls past
/// dropped triggers, record forest/provenance, and enforce budgets.
///
/// `resolved` must cover exactly `[0, plan.planned())` in ascending
/// ranges. Returns `Some(outcome)` when a budget stops the chase —
/// callers must stop the run — and `None` otherwise. On a mid-commit
/// stop the optimistically planned null tail is truncated, so the store
/// matches the sequential interleaving byte-for-byte.
#[allow(clippy::too_many_arguments)]
pub fn commit_batch(
    tgds: &TgdSet,
    config: &ChaseConfig,
    instance: &mut Instance,
    state: &mut ApplyState,
    accepted: &TriggerBatch,
    plan: &NullPlan,
    resolved: &[ResolvedBatch],
    stats: &mut ChaseStats,
) -> Option<ChaseOutcome> {
    // Fault site: fires before the first append, so a failed commit
    // leaves the instance exactly at the round boundary and the
    // rollback/replay machinery never sees a half-committed batch.
    crate::fault::check(crate::fault::FaultSite::Commit);
    let restricted = config.variant == ChaseVariant::Restricted;
    // Atom count at commit entry: while unchanged, the live instance is
    // exactly the snapshot the resolve stage already checked against.
    let commit_base = instance.len();
    // The plain path — no activeness re-checks, no forest, no
    // provenance — runs a tightened loop: on chain-shaped chases the
    // commit stage executes ~50 k times per second, so per-trigger
    // branches that can be hoisted out, are.
    if !restricted && state.forest.is_none() && state.provenance.is_none() {
        return commit_batch_plain(config, instance, state, accepted, plan, resolved, stats);
    }
    // Indexing policy — a pure performance choice, the resulting index
    // is identical either way. Small batches index eagerly inside the
    // append (the atom's data is hot; a deferred splice would re-read
    // it); wide rounds defer into one batched splice. The restricted
    // chase always indexes eagerly: each trigger's activeness re-check
    // reads the posting lists its predecessors just extended.
    let total_atoms: usize = resolved.iter().map(|rb| rb.preds.len()).sum();
    let eager = restricted || total_atoms <= EAGER_INDEX_MAX;
    let mut outcome = None;
    'commit: for rb in resolved {
        for li in 0..rb.trigger_count() {
            let i = rb.start + li;

            // This trigger's provisional-null re-basing, decided below
            // (restricted only): `(provisional base, count, shift)`.
            let mut rebase: Option<(u32, u32, u32)> = None;
            let mut fresh_nulls = 0usize;
            if restricted {
                if rb.inactive[li as usize] {
                    continue; // dropped at the snapshot — definitive
                }
                let (rule, binding) = accepted.get(i as usize);
                let tgd = tgds.get(rule);
                // Re-check against the live instance: an earlier commit
                // of this very round may have satisfied the head since
                // the snapshot. While this commit has inserted nothing,
                // live == snapshot and the resolve verdict still stands
                // — skipping the re-check halves the activeness cost of
                // one-firing-per-round (chain-shaped) restricted chases.
                if instance.len() > commit_base {
                    frontier_seed(tgd, binding, &mut state.seed_buf);
                    if tgd.head_plan().exists_hom_seeded(
                        instance,
                        &state.seed_buf,
                        &mut state.head_scratch,
                    ) {
                        continue;
                    }
                }
                let frontier_depth = plan.frontier_depth(i);
                if let Some(max_d) = config.budget.max_depth {
                    if !tgd.existentials().is_empty() && frontier_depth + 1 > max_d {
                        outcome = Some(ChaseOutcome::DepthLimit);
                        break 'commit;
                    }
                }
                // Fresh nulls, numbered by *firing* order: re-base this
                // trigger's provisional range onto the ids actually
                // assigned (they differ exactly by the nulls of dropped
                // earlier triggers).
                let n_ex = tgd.existentials().len() as u32;
                let provisional = plan.provisional_base(i);
                let real = state.nulls.len() as u32;
                for _ in 0..n_ex {
                    state.nulls.fresh(frontier_depth);
                }
                if provisional != real && n_ex > 0 {
                    rebase = Some((provisional, n_ex, provisional - real));
                }
                fresh_nulls = n_ex as usize;
            }
            stats.triggers_fired += 1;
            let atoms_before = instance.len();
            let mut stop_commit = false;

            let parent = if state.forest.is_some() {
                rb.parents[li as usize]
            } else {
                None
            };
            // The non-restricted fast path touches neither the binding
            // nor the rule unless provenance asks for it — everything
            // else was resolved in stage 3.
            let derivation: Option<Derivation> = state.provenance.as_ref().map(|_| Derivation {
                rule: accepted.rule(i as usize),
                body: rb.deriv_bodies_of(li).to_vec(),
            });

            for ai in rb.atom_range(li) {
                let pred = rb.preds[ai];
                let mut hash = rb.hashes[ai];
                let args: &[Term] = if let Some((provisional, n_ex, shift)) = rebase {
                    // Rewrite this trigger's own nulls (binding terms
                    // predate the round; only the provisional range can
                    // occur besides them) and rehash.
                    state.atom_buf.clear();
                    state
                        .atom_buf
                        .extend(rb.atom_terms(ai).iter().map(|&t| match t {
                            Term::Null(n) if n.0 >= provisional && n.0 < provisional + n_ex => {
                                Term::Null(NullId(n.0 - shift))
                            }
                            other => other,
                        }));
                    hash = hash_atom(pred, &state.atom_buf);
                    &state.atom_buf
                } else {
                    rb.atom_terms(ai)
                };
                // Present in the snapshot ⇒ still present (append-only):
                // skip the probe entirely. Otherwise resume the resolve
                // stage's probe walk from its hint — only same-round
                // insertions, which land at or after it, are re-examined
                // (a re-based restricted atom was re-hashed, so its hint
                // is void and the probe runs in full).
                let hint = match (rb.snap[ai], rebase) {
                    (Ok(_), _) => {
                        if instance.len() >= config.budget.max_atoms {
                            outcome = Some(ChaseOutcome::AtomLimit);
                            if !restricted {
                                state.nulls.truncate(plan.watermark(i) as usize);
                            }
                            stop_commit = true;
                            break;
                        }
                        continue;
                    }
                    (Err(hint), None) => Some(hint),
                    (Err(_), Some(_)) => None,
                };
                let inserted = if eager {
                    instance.insert_terms_hashed(pred, args, hash, hint)
                } else {
                    match hint {
                        Some(h) => {
                            instance.extend_terms_hinted(pred, args, hash, h, &mut state.delta)
                        }
                        None => instance.extend_terms(pred, args, hash, &mut state.delta),
                    }
                };
                if let Some(idx) = inserted {
                    if let Some(f) = state.forest.as_mut() {
                        f.push_child(idx, parent);
                    }
                    if let Some(pv) = state.provenance.as_mut() {
                        pv.push(idx, derivation.clone());
                    }
                }
                if instance.len() >= config.budget.max_atoms {
                    outcome = Some(ChaseOutcome::AtomLimit);
                    if !restricted {
                        // Unmake the planned-but-uncommitted null tail.
                        state.nulls.truncate(plan.watermark(i) as usize);
                    }
                    stop_commit = true;
                    break;
                }
            }
            if let Some(t) = state.telemetry.as_deref_mut() {
                let nulls = if restricted {
                    fresh_nulls
                } else {
                    plan.nulls_of(i) as usize
                };
                t.rule_fired(
                    accepted.rule(i as usize).index(),
                    instance.len() - atoms_before,
                    nulls,
                );
            }
            if stop_commit {
                break 'commit;
            }
        }
    }
    // The deferred path's one batched splice (a no-op after the eager
    // path, and on every early-break path the eager policy was in force
    // or the delta still drains here).
    if !state.delta.is_empty() {
        instance.splice_index(&mut state.delta);
    }
    outcome.or(plan.pending())
}

/// The tightened commit loop for the common configuration (no
/// restricted re-checks, no forest, no provenance): identical semantics
/// to [`commit_batch`]'s general loop, minus the per-trigger feature
/// branches. Kept adjacent so the two loops are reviewed together.
#[allow(clippy::too_many_arguments)]
fn commit_batch_plain(
    config: &ChaseConfig,
    instance: &mut Instance,
    state: &mut ApplyState,
    accepted: &TriggerBatch,
    plan: &NullPlan,
    resolved: &[ResolvedBatch],
    stats: &mut ChaseStats,
) -> Option<ChaseOutcome> {
    let total_atoms: usize = resolved.iter().map(|rb| rb.preds.len()).sum();
    let eager = total_atoms <= EAGER_INDEX_MAX;
    let max_atoms = config.budget.max_atoms;
    // Hoisted telemetry gate: the disabled (default) loop stays as
    // tight as before — one branch per trigger, no clock or len reads.
    let telem = state.telemetry.is_some();
    let mut outcome = None;
    'commit: for rb in resolved {
        for li in 0..rb.trigger_count() {
            stats.triggers_fired += 1;
            let atoms_before = if telem { instance.len() } else { 0 };
            let mut stop_commit = false;
            for ai in rb.atom_range(li) {
                if let Err(hint) = rb.snap[ai] {
                    let (pred, hash) = (rb.preds[ai], rb.hashes[ai]);
                    let args = rb.atom_terms(ai);
                    if eager {
                        instance.insert_terms_hashed(pred, args, hash, Some(hint));
                    } else {
                        instance.extend_terms_hinted(pred, args, hash, hint, &mut state.delta);
                    }
                }
                if instance.len() >= max_atoms {
                    outcome = Some(ChaseOutcome::AtomLimit);
                    state.nulls.truncate(plan.watermark(rb.start + li) as usize);
                    stop_commit = true;
                    break;
                }
            }
            if telem {
                let i = rb.start + li;
                if let Some(t) = state.telemetry.as_deref_mut() {
                    t.rule_fired(
                        accepted.rule(i as usize).index(),
                        instance.len() - atoms_before,
                        plan.nulls_of(i) as usize,
                    );
                }
            }
            if stop_commit {
                break 'commit;
            }
        }
    }
    if !state.delta.is_empty() {
        instance.splice_index(&mut state.delta);
    }
    outcome.or(plan.pending())
}

/// Total resolved atoms at or below which the commit loop indexes
/// eagerly instead of deferring into a batched splice (see
/// [`commit_batch`]). Performance-only: the index is identical.
const EAGER_INDEX_MAX: usize = 64;

/// Delta ceiling (in atoms) for a round to take the fused micro-round
/// path under [`ApplyPath::Auto`]. Chain-shaped chases live their whole
/// life under it; wide rounds — where the staged pipeline's batched
/// splices and shardable resolve pay off — stay on the pipeline. Purely
/// a performance choice: results are byte-identical on both paths.
pub const FUSED_DELTA_MAX: AtomIdx = 64;

/// Trigger-count ceiling for the fused path under [`ApplyPath::Auto`]
/// (both bounds must hold — a tiny delta can still fan out into many
/// triggers, which the pipeline handles better).
pub const FUSED_TRIGGER_MAX: usize = 32;

/// Delta floor (in atoms) for a non-fused round to take the batch
/// (columnar) enumeration path under [`BatchEnum::Auto`]. Below it the
/// per-trigger backtracking search wins: the lane program's per-step
/// setup and column traffic need enough candidate rows to amortize.
/// Purely a performance choice: results are byte-identical on both
/// paths.
pub const BATCH_DELTA_MIN: AtomIdx = 4096;

/// Resolves the apply-path choice for a run: an explicit
/// [`ChaseConfig::apply_path`] wins; otherwise the
/// `NUCHASE_FORCE_PIPELINE` environment variable (`1`/`true` forces the
/// staged pipeline, `0`/`false` the fused path — the differential-sweep
/// override); otherwise [`ApplyPath::Auto`]. Called once per run, never
/// per round (the environment read is not free).
pub fn resolved_apply_path(config: &ChaseConfig) -> ApplyPath {
    if config.apply_path != ApplyPath::Auto {
        return config.apply_path;
    }
    match crate::config::env_switch("NUCHASE_FORCE_PIPELINE") {
        Some(true) => ApplyPath::Pipeline,
        Some(false) => ApplyPath::Fused,
        None => ApplyPath::Auto,
    }
}

/// Resolves the batch-enumeration choice for a run, mirroring
/// [`resolved_apply_path`]: an explicit [`ChaseConfig::batch_enum`]
/// wins; otherwise the `NUCHASE_FORCE_BATCH_ENUM` environment variable
/// (`1`/`true` forces the batch path for every non-fused round,
/// `0`/`false` disables it — the differential-sweep override);
/// otherwise [`BatchEnum::Auto`]. Called once per run, never per round.
pub fn resolved_batch_enum(config: &ChaseConfig) -> BatchEnum {
    if config.batch_enum != BatchEnum::Auto {
        return config.batch_enum;
    }
    match crate::config::env_switch("NUCHASE_FORCE_BATCH_ENUM") {
        Some(true) => BatchEnum::On,
        Some(false) => BatchEnum::Off,
        None => BatchEnum::Auto,
    }
}

/// Resolves the telemetry level of a run, mirroring
/// [`resolved_apply_path`]: an explicit non-`Off`
/// [`ChaseConfig::telemetry`] wins; otherwise the `NUCHASE_TELEMETRY`
/// environment variable (`off` / `counters` / `full`); otherwise
/// [`TelemetryLevel::Off`]. Resolved once per session, never per round.
/// (The environment cannot force an explicitly requested level *off* —
/// `Off` is the config default, so a config that says anything else
/// said it on purpose.)
pub fn resolved_telemetry(config: &ChaseConfig) -> TelemetryLevel {
    if config.telemetry != TelemetryLevel::Off {
        return config.telemetry;
    }
    match crate::config::env_str("NUCHASE_TELEMETRY").as_deref() {
        Some("counters") => TelemetryLevel::Counters,
        Some("full") => TelemetryLevel::Full,
        _ => TelemetryLevel::Off,
    }
}

/// The fused decision, taken before enumeration on the delta alone, so
/// the round can enumerate with eager dedup ([`enumerate_task_eager`]);
/// under [`ApplyPath::Auto`] a fused round that then fans out past
/// [`FUSED_TRIGGER_MAX`] triggers falls back to the staged stages minus
/// the (already performed) merge.
#[inline]
pub fn fused_round_delta(path: ApplyPath, delta: AtomIdx) -> bool {
    match path {
        ApplyPath::Pipeline => false,
        ApplyPath::Fused => true,
        ApplyPath::Auto => delta <= FUSED_DELTA_MAX,
    }
}

/// Does a **non-fused** round with `delta` new atoms enumerate through
/// the batch (columnar) path under the resolved choice? Fused rounds
/// never batch: their eager per-trigger enumeration *is* their apply
/// pass, and a micro-round's handful of candidates has nothing to
/// amortize.
#[inline]
pub fn batch_round_delta(choice: BatchEnum, delta: AtomIdx) -> bool {
    match choice {
        BatchEnum::On => true,
        BatchEnum::Off => false,
        BatchEnum::Auto => delta >= BATCH_DELTA_MIN,
    }
}

/// The **fused micro-round** apply path: one straight-line pass per
/// trigger against the *live* instance — authoritative dedup, activeness,
/// null invention, head instantiation, hashing, and a hinted insert
/// ([`Instance::insert_new_terms_hinted`] resuming the dedup probe) —
/// with none of the staged pipeline's per-round bookkeeping (no accepted
/// batch copy, no null plan, no resolved-batch arenas, no deferred index
/// splice). This is what a chain-shaped chase runs ~50 k times per
/// second, so per-round fixed costs are the whole game here.
///
/// # Byte-identity with the pipeline
///
/// Every observable equals the staged path's, for every variant:
///
/// * the per-trigger `fired` insert *is* the merge, applied in the same
///   canonical batch order;
/// * semi-oblivious/oblivious nulls are interned in accepted order —
///   exactly the plan stage's order — and a depth-budget stop lands on
///   the same trigger with the same store (nothing planned ahead means
///   nothing to truncate);
/// * the restricted activeness check against the live instance decides
///   exactly like the pipeline's snapshot pre-check plus commit re-check:
///   while nothing has committed this round the live instance *is* the
///   snapshot, and afterwards the live check is the re-check (instances
///   only grow, commits run in canonical order). Fresh nulls are drawn
///   in firing order, as at commit;
/// * guard/body images for forest/provenance are body atoms, hence
///   already present at round start; append-only growth keeps their
///   indexes identical under live lookups;
/// * the atom-budget check runs after every head atom — snapshot hit or
///   not — exactly like the commit loop's.
///
/// The batch comes from the eager enumerator ([`enumerate_task_eager`]),
/// so its trigger keys are already committed to the fired sets and its
/// contents are pre-merged.
///
/// The forced-path differential sweeps (`tests/properties.rs`) pin this
/// across variants, thread counts, and budget stops.
pub fn apply_fused(
    tgds: &TgdSet,
    config: &ChaseConfig,
    instance: &mut Instance,
    state: &mut ApplyState,
    ws: &mut WorkerScratch,
    batch: &TriggerBatch,
    stats: &mut ChaseStats,
) -> Option<ChaseOutcome> {
    // Fault site: fires before the fused path touches the instance,
    // mirroring `commit_batch`.
    crate::fault::check(crate::fault::FaultSite::Commit);
    stats.fused_rounds += 1;
    for (rule, binding) in batch.iter() {
        let tgd = tgds.get(rule);
        // μ starts as the placeholder-form binding; `fire_trigger` fills
        // the existential slots.
        ws.mu.clear();
        ws.mu.extend_from_slice(binding);
        if let Some(stop) = fire_trigger(config, instance, state, ws, rule, tgd, None, stats) {
            return Some(stop);
        }
    }
    None
}

/// The per-trigger tail of the fused path — everything past the
/// authoritative dedup: restricted activeness against the live instance,
/// the depth budget, null invention into `ws.mu` (which must hold the
/// trigger's placeholder-form binding), forest/provenance images, head
/// instantiation, and the hinted dedup-probe + insert per head atom with
/// the atom-budget check after each. Shared verbatim by [`apply_fused`]
/// and the chain micro-round ([`fused_chain_round`]), so the two cannot
/// drift. `key_hash` (when `Some`) says `ws.key_buf` already holds the
/// trigger-key image with that [`hash_terms`] hash — the image doubles
/// as the null name key (same variable set for both non-restricted
/// variants), so both the rebuild and the re-hash are spared. Returns
/// `Some(outcome)` when a budget stops the run.
#[allow(clippy::too_many_arguments)]
fn fire_trigger(
    config: &ChaseConfig,
    instance: &mut Instance,
    state: &mut ApplyState,
    ws: &mut WorkerScratch,
    rule: RuleId,
    tgd: &Tgd,
    key_hash: Option<u64>,
    stats: &mut ChaseStats,
) -> Option<ChaseOutcome> {
    let restricted = config.variant == ChaseVariant::Restricted;
    if restricted {
        // Activeness against the live instance (≡ snapshot pre-check +
        // commit re-check, see the `apply_fused` docs).
        frontier_seed(tgd, &ws.mu, &mut ws.seed_buf);
        if tgd
            .head_plan()
            .exists_hom_seeded(instance, &ws.seed_buf, &mut ws.scratch)
        {
            return None;
        }
    }
    let telem = state.telemetry.is_some();
    let (atoms_before, nulls_before) = if telem {
        (instance.len(), state.nulls.len())
    } else {
        (0, 0)
    };
    let frontier_depth = state.nulls.max_frontier_depth(tgd.frontier(), &ws.mu);
    if let Some(max_d) = config.budget.max_depth {
        if !tgd.existentials().is_empty() && frontier_depth + 1 > max_d {
            return Some(ChaseOutcome::DepthLimit);
        }
    }
    if restricted {
        for &z in tgd.existentials() {
            ws.mu[z.index()] = Term::Null(state.nulls.fresh(frontier_depth));
        }
    } else if !tgd.existentials().is_empty() {
        // The null name key: the frontier image (semi-oblivious) or
        // body-variable image (oblivious) — exactly the trigger key,
        // so a caller that just built and hashed it spares both.
        let image_hash = match key_hash {
            Some(h) => h,
            None => {
                ws.key_buf.clear();
                ws.key_buf.extend(
                    key_vars(tgd, config.variant)
                        .iter()
                        .map(|v| ws.mu[v.index()]),
                );
                hash_terms(&ws.key_buf)
            }
        };
        for &z in tgd.existentials() {
            let null = state.nulls.intern_parts_hashed(
                rule,
                z,
                &ws.key_buf,
                Some(image_hash),
                frontier_depth,
            );
            ws.mu[z.index()] = Term::Null(null);
        }
    }
    stats.triggers_fired += 1;

    // The fused probe queue, part 2: instantiate and hash every head
    // atom up front and queue a prefetch of its dedup-probe line, so a
    // multi-atom head's instance-table misses overlap each other (and
    // the forest/provenance image lookups below). Pure reordering of
    // per-atom compute — the probes themselves still run against the
    // live instance, in head order, in the loop below.
    ws.head_flat.clear();
    ws.head_meta.clear();
    for head_atom in tgd.head() {
        instantiate_into(head_atom, &ws.mu, &mut ws.atom_buf);
        let hash = hash_atom(head_atom.pred, &ws.atom_buf);
        ws.head_meta.push((ws.head_flat.len() as u32, hash));
        ws.head_flat.extend_from_slice(&ws.atom_buf);
        instance.prefetch_probe(hash);
    }
    let queued = ws.head_meta.len()
        + if key_hash.is_some() && !restricted {
            tgd.existentials().len()
        } else {
            0
        };
    stats.batched_probes += queued;
    stats.prefetch_queue_depth = stats.prefetch_queue_depth.max(queued);

    let parent = if state.forest.is_some() {
        tgd.guard().and_then(|g| {
            instantiate_into(g, &ws.mu, &mut ws.atom_buf);
            instance.index_of_terms(g.pred, &ws.atom_buf)
        })
    } else {
        None
    };
    let derivation: Option<Derivation> = state.provenance.as_ref().map(|_| Derivation {
        rule,
        body: tgd
            .body()
            .iter()
            .map(|b| {
                instantiate_into(b, &ws.mu, &mut ws.atom_buf);
                instance
                    .index_of_terms(b.pred, &ws.atom_buf)
                    .expect("body image is in the instance")
            })
            .collect(),
    });

    let max_atoms = config.budget.max_atoms;
    let mut stop = None;
    for (i, head_atom) in tgd.head().iter().enumerate() {
        let (start, hash) = ws.head_meta[i];
        let end = ws
            .head_meta
            .get(i + 1)
            .map_or(ws.head_flat.len(), |&(s, _)| s as usize);
        let args = &ws.head_flat[start as usize..end];
        // Dedup probe and insert fused into one walk: the hint from the
        // locate is the insert's resumption point.
        if let Err(hint) = instance.locate_terms_hashed(head_atom.pred, args, hash) {
            let idx = instance.insert_new_terms_hinted(head_atom.pred, args, hash, hint);
            if let Some(f) = state.forest.as_mut() {
                f.push_child(idx, parent);
            }
            if let Some(pv) = state.provenance.as_mut() {
                pv.push(idx, derivation.clone());
            }
        }
        if instance.len() >= max_atoms {
            stop = Some(ChaseOutcome::AtomLimit);
            break;
        }
    }
    if let Some(t) = state.telemetry.as_deref_mut() {
        let nulls_after = state.nulls.len();
        t.rule_fired(
            rule.index(),
            instance.len() - atoms_before,
            nulls_after - nulls_before,
        );
    }
    stop
}

/// Issues next-round probe prefetches for the atoms a chain trigger
/// just appended (`window` is `[created_from, len)`). Each new atom is
/// unified against every rule's single body pattern — the same walk
/// [`fused_chain_round`] will run next round — and the resulting
/// trigger-key hash warms the fired-set partition and null-intern
/// partition that key will probe. Pure hint issuance: a wasted or wrong
/// prefetch has no architectural effect, so byte-identity is free. The
/// duplicated unify+hash is bounded by the window cap (chain triggers
/// append one or two atoms; wide fused firings skip the speculation).
#[allow(clippy::too_many_arguments)]
fn prefetch_next_chain_round(
    tgds: &TgdSet,
    config: &ChaseConfig,
    instance: &Instance,
    fired: &[TermTupleSet],
    state: &ApplyState,
    ws: &mut WorkerScratch,
    window: (AtomIdx, AtomIdx),
    stats: &mut ChaseStats,
) {
    const SPECULATE_MAX: AtomIdx = 8;
    if window.1 - window.0 > SPECULATE_MAX {
        return;
    }
    let mut queued = 0usize;
    for idx in window.0..window.1 {
        for (nrule, ntgd) in tgds.iter() {
            let pattern = &ntgd.body()[0];
            if instance.pred_of(idx) != pattern.pred {
                continue;
            }
            let atom = instance.atom(idx);
            ws.mu.clear();
            ws.mu
                .extend((0..ntgd.body_plan().var_count()).map(|i| Term::Var(VarId(i))));
            let mut ok = true;
            for (&pt, &at) in pattern.args.iter().zip(atom.args.iter()) {
                match pt {
                    Term::Var(v) => {
                        let slot = &mut ws.mu[v.index()];
                        if slot.is_var() {
                            *slot = at;
                        } else if *slot != at {
                            ok = false;
                            break;
                        }
                    }
                    ground => {
                        if ground != at {
                            ok = false;
                            break;
                        }
                    }
                }
            }
            if !ok {
                continue;
            }
            ws.key_buf.clear();
            ws.key_buf.extend(
                key_vars(ntgd, config.variant)
                    .iter()
                    .map(|v| ws.mu[v.index()]),
            );
            let khash = hash_terms(&ws.key_buf);
            fired[nrule.index()].prefetch(khash);
            queued += 1;
            if config.variant != ChaseVariant::Restricted {
                for &z in ntgd.existentials() {
                    state.nulls.prefetch_intern(nrule, z, khash);
                    queued += 1;
                }
            }
        }
    }
    stats.batched_probes += queued;
    stats.prefetch_queue_depth = stats.prefetch_queue_depth.max(queued);
}

/// Is every rule body a single atom? The gate for the chain micro-round
/// ([`fused_chain_round`]): with one body atom per rule, a delta stage
/// is a single New-window walk — no Old/All-region steps exist whose
/// candidate lists could observe same-round inserts.
pub fn single_atom_bodies(tgds: &TgdSet) -> bool {
    tgds.iter().all(|(_, t)| t.body().len() == 1)
}

/// The **chain micro-round**: enumerate, dedup, and fire in ONE pass
/// over the delta window — the fully fused form of a round, applicable
/// when every rule body is a single atom ([`single_atom_bodies`]) and
/// the round is on the fused path. No [`TriggerBatch`] is materialized,
/// no [`crate::phase`] search machinery runs: per rule (id order), the
/// window `[delta.0, delta.1)` is walked directly, each atom unified
/// against the rule's one body pattern, surviving keys committed to the
/// authoritative fired set, and the trigger fired on the spot through
/// `fire_trigger`.
///
/// # Byte-identity with the staged paths
///
/// The window bound is fixed *before* the pass and instances are
/// append-only, so same-round inserts (indexes `≥ delta.1`) are
/// invisible to the walk — enumerating the live instance here equals
/// enumerating the frozen snapshot. The walk visits window atoms in
/// ascending index order, exactly the order the compiled plan's pivot
/// stage yields them (its keyed candidate lists are ascending
/// sub-sequences of the window, and unification filters identically),
/// and rules run in id order — so triggers fire in canonical order, and
/// every downstream observable (null ids, atom indexes, provenance,
/// counters) matches the staged pipeline. Pinned by the forced-path
/// differential sweeps.
///
/// Returns `(homs considered, any trigger accepted, budget stop)`; "no
/// trigger accepted" is the staged flow's "batch empty" fixpoint signal.
/// A budget stop mid-walk keeps *enumerating* (counting homs) without
/// firing — the staged flow finishes the enumerate phase before its
/// apply stop lands, and `triggers_considered` must match byte for byte
/// (the skipped triggers' fired keys are unobservable: the run ends).
#[allow(clippy::too_many_arguments)]
pub fn fused_chain_round(
    tgds: &TgdSet,
    config: &ChaseConfig,
    instance: &mut Instance,
    fired: &mut [TermTupleSet],
    state: &mut ApplyState,
    ws: &mut WorkerScratch,
    delta: (AtomIdx, AtomIdx),
    stats: &mut ChaseStats,
) -> (usize, bool, Option<ChaseOutcome>) {
    // Fault site: the fused chain round enumerates and commits in one
    // pass, so the worker-task site guards its entry (before mutation).
    crate::fault::check(crate::fault::FaultSite::WorkerTask);
    stats.fused_rounds += 1;
    let mut considered = 0usize;
    let mut any = false;
    let mut stopped: Option<ChaseOutcome> = None;
    let timed = state.sample_rule_timing();
    for (rule, tgd) in tgds.iter() {
        let rule_mark = timed.then(Instant::now);
        let mut rule_considered = 0usize;
        let pattern = &tgd.body()[0];
        let keys = key_vars(tgd, config.variant);
        let var_count = tgd.body_plan().var_count();
        for idx in delta.0..delta.1 {
            if instance.pred_of(idx) != pattern.pred {
                continue;
            }
            // Unify the pattern against the window atom into μ
            // (placeholder form: unbound slots keep their variable).
            let ok = {
                let atom = instance.atom(idx);
                ws.mu.clear();
                ws.mu.extend((0..var_count).map(|i| Term::Var(VarId(i))));
                let mut ok = true;
                for (&pt, &at) in pattern.args.iter().zip(atom.args.iter()) {
                    match pt {
                        Term::Var(v) => {
                            let slot = &mut ws.mu[v.index()];
                            if slot.is_var() {
                                *slot = at;
                            } else if *slot != at {
                                ok = false;
                                break;
                            }
                        }
                        ground => {
                            if ground != at {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                ok
            };
            if !ok {
                continue;
            }
            rule_considered += 1;
            if stopped.is_some() {
                continue; // enumeration-only past the budget stop
            }
            // Eager authoritative dedup, as in the collector; the key
            // hash feeds the null name probe too.
            ws.key_buf.clear();
            ws.key_buf.extend(keys.iter().map(|v| ws.mu[v.index()]));
            let khash = hash_terms(&ws.key_buf);
            // Chain rounds are bound by three serialized random probes
            // (fired insert → null intern → instance probe); the null
            // slot's hash derives from the key hash alone, so queueing
            // its prefetch here overlaps its miss with the fired walk.
            if config.variant != ChaseVariant::Restricted {
                for &z in tgd.existentials() {
                    state.nulls.prefetch_intern(rule, z, khash);
                }
            }
            if !fired[rule.index()].insert_hashed(&ws.key_buf, khash) {
                continue;
            }
            any = true;
            let created_from = instance.len() as AtomIdx;
            stopped = fire_trigger(config, instance, state, ws, rule, tgd, Some(khash), stats);
            // Cross-round software pipelining: the atoms a chain trigger
            // creates ARE the next round's delta window, so their trigger
            // keys — and the fired-set / null-intern lines those keys
            // will probe — are computable a full round ahead. Issuing the
            // prefetches here gives the misses the whole remaining round
            // (bookkeeping, window patching, budget checks) of distance
            // instead of the few nanoseconds the in-round queue manages.
            if stopped.is_none() {
                prefetch_next_chain_round(
                    tgds,
                    config,
                    instance,
                    fired,
                    state,
                    ws,
                    (created_from, instance.len() as AtomIdx),
                    stats,
                );
            }
        }
        considered += rule_considered;
        state.note_considered(rule, rule_considered);
        if let Some(mark) = rule_mark {
            state.note_rule_secs(rule, mark.elapsed().as_secs_f64());
        }
    }
    (considered, any, stopped)
}

/// Prepares the canonical task list of a round, reusing the previous
/// round's list when its shape is unchanged. A chain-shaped chase spends
/// virtually every round in the same shape — `delta_start > 0` and the
/// whole delta inside one `TASK_CHUNK` window — so instead of clearing
/// and re-pushing the identical `(rule, pivot)` sequence tens of
/// thousands of times, the windows are patched in place. `was_single` is
/// the caller-kept shape flag from the previous round (start it `false`).
/// Produces exactly [`round_tasks`]' output in every case.
pub fn prepare_round_tasks(
    tgds: &TgdSet,
    delta_start: AtomIdx,
    len: AtomIdx,
    tasks: &mut Vec<Task>,
    was_single: &mut bool,
) {
    let single = delta_start > 0 && delta_start < len && len - delta_start <= TASK_CHUNK;
    if single && *was_single {
        debug_assert_eq!(
            tasks.len(),
            tgds.iter()
                .map(|(_, t)| t.body_plan().pivot_count())
                .sum::<usize>()
        );
        for t in tasks.iter_mut() {
            t.window = (delta_start, len);
        }
        return;
    }
    round_tasks(tgds, delta_start, len, tasks);
    *was_single = single;
}

/// The persistent per-**run** round driver: every buffer a chase round
/// reuses — worker scratch, the enumerated trigger batch, the pipeline's
/// apply buffers, the canonical task list — plus the run's resolved
/// [`ApplyPath`] and the carry timestamp its phase timers lap against.
/// Owning all of this across rounds (instead of per round) is what
/// amortizes the fixed costs that chain-shaped chases, at one or two
/// triggers a round, are bound by.
///
/// # Timing contract
///
/// The driver keeps one running boundary timestamp; each phase "lap"
/// attributes the span since the previous boundary to exactly one stat,
/// so `enumerate + dedup + apply` sums to the round-loop wall by
/// construction — there is no instant between the seed mark and the
/// last lap that belongs to no phase. Fused micro-rounds go further and
/// take **one** clock read per round (instead of the six the staged
/// accounting used to take): the round's whole span is measured at
/// apply-end and *split* between `enumerate` and `commit` by a ratio
/// re-sampled with two reads every `TIMER_SAMPLE`-th fused round. The
/// sum stays exact; only the enumerate/commit split of fused rounds is
/// sampled, which is the "round-sampled stats mode" the per-phase
/// numbers document.
#[derive(Debug)]
pub struct RoundDriver {
    /// Enumerate + serial-stage scratch.
    pub ws: WorkerScratch,
    /// The round's triggers from tasks drained on the calling thread.
    pub batch: TriggerBatch,
    /// The round's triggers from a shared enumerate phase, one batch per
    /// task in canonical order — empty unless the round engaged the
    /// scheduler's helpers (then [`RoundDriver::batch`] is empty).
    pub(crate) units: Vec<TriggerBatch>,
    /// Pipeline-path buffers (accepted batch, null plan, inline resolve).
    pub bufs: ApplyBuffers,
    /// Canonical task list (see [`RoundDriver::prepare_tasks`]).
    pub tasks: Vec<Task>,
    /// Resolved once per run from the config and the environment.
    path: ApplyPath,
    /// Batch-enumeration choice, resolved once per run like `path`.
    batch_choice: BatchEnum,
    /// Every rule body is one atom ([`single_atom_bodies`]), so fused
    /// rounds may run as chain micro-rounds ([`fused_chain_round`]).
    chain_ok: bool,
    /// Shape flag for [`prepare_round_tasks`].
    tasks_single: bool,
    /// The carry timestamp (see the type docs).
    mark: Instant,
    /// Is the current round on the fused path ([`RoundDriver::begin_round`])?
    round_fused: bool,
    /// Does the current round enumerate through the batch path?
    round_batch: bool,
    /// Emit seconds accrued by the current round's batch enumeration
    /// (drained into the probe/emit split at [`RoundDriver::lap_enumerate`]).
    round_emit: f64,
    /// Does the current fused round sample the enumerate/commit split?
    sample: bool,
    /// Fused rounds seen (drives the sampling cadence).
    fused_seen: u32,
    /// Sampled estimate of the enumerate share of a fused round.
    enum_share: f64,
    /// The enumerate lap of the current sampled round.
    last_enum: f64,
    /// Chain micro-rounds whose span is still accrued on the carry
    /// timestamp (their lap is sampled too — see
    /// [`RoundDriver::lap_chain_round`]).
    chain_pending: u32,
}

/// Cadence of full two-read timing samples on the fused path: every
/// `TIMER_SAMPLE`-th fused round measures the enumerate/commit boundary;
/// the rounds between inherit the sampled ratio (their *total* time is
/// still measured exactly).
const TIMER_SAMPLE: u32 = 64;

/// Chain micro-rounds take one clock read every this many rounds: the
/// carry timestamp simply accrues across the rounds between (all of
/// them attribute to the same stat), so the phase *sum* stays exact and
/// the only cost of the batching is a coarser-grained commit counter.
const CHAIN_LAP_SAMPLE: u32 = 16;

impl RoundDriver {
    /// Creates a driver whose first span starts now.
    pub fn new(config: &ChaseConfig, tgds: &TgdSet) -> Self {
        Self::with_mark(config, tgds, Instant::now())
    }

    /// Creates a driver whose first span starts at `mark` — pass the
    /// run's start instant so setup cost (instance clone, allocation)
    /// lands in the first enumerate span instead of vanishing from the
    /// phase accounting.
    pub fn with_mark(config: &ChaseConfig, tgds: &TgdSet, mark: Instant) -> Self {
        RoundDriver {
            ws: WorkerScratch::new(),
            batch: TriggerBatch::new(),
            units: Vec::new(),
            bufs: ApplyBuffers::new(),
            tasks: Vec::new(),
            path: resolved_apply_path(config),
            batch_choice: resolved_batch_enum(config),
            chain_ok: single_atom_bodies(tgds),
            tasks_single: false,
            mark,
            round_fused: false,
            round_batch: false,
            round_emit: 0.0,
            sample: true,
            fused_seen: 0,
            enum_share: 0.25,
            last_enum: 0.0,
            chain_pending: 0,
        }
    }

    /// Re-arms the driver for a new run, possibly over different rules:
    /// re-resolves the apply path, installs the caller's precomputed
    /// chain classification (a [`single_atom_bodies`] result — prepared
    /// programs compute it once, not per run), resets the per-run
    /// timing state, and re-seeds the carry timestamp — keeping every
    /// buffer allocation. This is what lets an engine recycle one
    /// driver across many chases (and a session across many runs).
    pub fn restart(&mut self, config: &ChaseConfig, chain_ok: bool, mark: Instant) {
        self.path = resolved_apply_path(config);
        self.batch_choice = resolved_batch_enum(config);
        self.chain_ok = chain_ok;
        self.units.clear();
        self.tasks.clear();
        self.tasks_single = false;
        self.mark = mark;
        self.round_fused = false;
        self.round_batch = false;
        self.round_emit = 0.0;
        self.sample = true;
        self.fused_seen = 0;
        self.enum_share = 0.25;
        self.last_enum = 0.0;
        self.chain_pending = 0;
    }

    /// Flushes the chain-round span still accrued on the carry timestamp
    /// (bounded by `CHAIN_LAP_SAMPLE` rounds) into the commit/apply
    /// stats — called at run end so a finished or paused run's phase
    /// accounting covers its wall.
    pub fn finish_run(&mut self, stats: &mut ChaseStats) {
        if self.chain_pending > 0 {
            self.chain_pending = 0;
            let dt = self.lap();
            stats.commit_secs += dt;
            stats.apply_secs += dt;
        }
    }

    /// The run's resolved apply path.
    pub fn path(&self) -> ApplyPath {
        self.path
    }

    /// Books the span since the last boundary as shared-run teardown
    /// ([`ChaseStats::pool_secs`]).
    pub(crate) fn lap_pool(&mut self, stats: &mut ChaseStats) {
        stats.pool_secs += self.lap();
    }

    /// Should the current round (after [`RoundDriver::begin_round`] said
    /// fused) run as a chain micro-round ([`fused_chain_round`])?
    pub fn chain_round(&self) -> bool {
        self.round_fused && self.chain_ok
    }

    /// Closes a chain micro-round's single span. Enumeration, dedup, and
    /// apply are one loop there — no boundary exists to measure — so the
    /// whole span is accounted under `commit` (and `apply`), keeping the
    /// phase sum exact; `phase_summary` still shows the round as fused.
    /// The clock itself is read once per `CHAIN_LAP_SAMPLE` rounds:
    /// consecutive chain rounds all attribute to the same stat, so the
    /// carry timestamp can accrue across them at no accuracy cost (a
    /// streak's unflushed tail — bounded by the sample window — is the
    /// only time the wall sees but commit does not).
    pub fn lap_chain_round(&mut self, stats: &mut ChaseStats) {
        self.chain_pending += 1;
        if self.chain_pending < CHAIN_LAP_SAMPLE {
            return;
        }
        self.chain_pending = 0;
        let dt = self.lap();
        stats.commit_secs += dt;
        stats.apply_secs += dt;
    }

    /// Starts a round, deciding its apply path and enumeration path from
    /// the delta width (the pre-enumeration decisions — see
    /// [`fused_round_delta`] and [`batch_round_delta`]). Returns whether
    /// the round should enumerate with **eager dedup**
    /// ([`enumerate_task_eager`]) — the fused path's contract. Non-fused
    /// rounds consult [`RoundDriver::batch_round`] for the wide-round
    /// batch path.
    pub fn begin_round(&mut self, delta: AtomIdx, stats: &mut ChaseStats) -> bool {
        self.round_fused = fused_round_delta(self.path, delta);
        self.round_batch = !self.round_fused && batch_round_delta(self.batch_choice, delta);
        if self.round_batch {
            stats.batched_rounds += 1;
        }
        if self.chain_pending > 0 && !(self.round_fused && self.chain_ok) {
            // Leaving a chain-round streak: flush the accrued spans to
            // commit before a staged round's laps could absorb them.
            self.chain_pending = 0;
            let dt = self.lap();
            stats.commit_secs += dt;
            stats.apply_secs += dt;
        }
        if self.round_fused {
            self.sample = self.fused_seen.is_multiple_of(TIMER_SAMPLE);
            self.fused_seen = self.fused_seen.wrapping_add(1);
        } else {
            self.sample = true;
        }
        self.round_fused
    }

    /// Does the current (non-fused) round enumerate through the batch
    /// path ([`enumerate_task_batch`])? Decided at
    /// [`RoundDriver::begin_round`].
    pub fn batch_round(&self) -> bool {
        self.round_batch
    }

    /// The telemetry label of the current round's path (as decided at
    /// [`RoundDriver::begin_round`]; chain micro-rounds are labelled by
    /// their caller, which knows it took that branch).
    pub fn round_path(&self) -> RoundPath {
        if self.round_fused {
            RoundPath::Fused
        } else if self.round_batch {
            RoundPath::Batched
        } else {
            RoundPath::Pipeline
        }
    }

    /// Accrues batch-enumeration emit time (the `emit_secs` out-param of
    /// the batch enumerators) into the current round, for the probe/emit
    /// split of the next [`RoundDriver::lap_enumerate`].
    pub fn note_emit(&mut self, secs: f64) {
        self.round_emit += secs;
    }

    /// Seconds since the last boundary; advances the boundary.
    fn lap(&mut self) -> f64 {
        lap_mark(&mut self.mark)
    }

    /// Closes the enumerate span (covers round prep + enumeration),
    /// splitting it into probe + emit: emit is the measured block-drain
    /// time of a batch round ([`RoundDriver::note_emit`], zero on
    /// per-trigger rounds, whose single fused loop is all probe), probe
    /// the remainder — so `probe + emit == enumerate` exactly. On an
    /// unsampled fused round this takes no clock read — the span is
    /// measured at apply-end and split by the sampled ratio; a round
    /// that ends here (empty batch, the run's fixpoint) is closed
    /// exactly regardless.
    pub fn lap_enumerate(&mut self, stats: &mut ChaseStats) {
        if self.round_fused && !self.sample && !self.batch.is_empty() {
            return;
        }
        let e = self.lap();
        stats.enumerate_secs += e;
        let emit = self.round_emit.min(e);
        self.round_emit = 0.0;
        stats.emit_secs += emit;
        stats.probe_secs += e - emit;
        self.last_enum = e;
    }

    /// Prepares [`RoundDriver::tasks`] for the round (incrementally —
    /// see [`prepare_round_tasks`]).
    pub fn prepare_tasks(&mut self, tgds: &TgdSet, delta_start: AtomIdx, len: AtomIdx) {
        prepare_round_tasks(
            tgds,
            delta_start,
            len,
            &mut self.tasks,
            &mut self.tasks_single,
        );
    }

    /// Does the current round hold no trigger at all — the fixpoint
    /// signal after enumeration?
    pub(crate) fn no_triggers(&self) -> bool {
        self.batch.is_empty() && self.units.iter().all(TriggerBatch::is_empty)
    }

    /// The round's apply step, on the path [`RoundDriver::begin_round`]
    /// chose — with the span accounting described in the type docs.
    /// `helpers` (a `threads ≥ 2` blocking run) takes a wide resolve
    /// stage's ranges alongside the calling thread. Returns
    /// `Some(outcome)` when a budget stops the run or a shared phase
    /// failed.
    ///
    /// On the fused path the batch is pre-merged (eager enumeration), so
    /// the straight-line pass skips the merge; a fused-eligible round
    /// that fanned out past [`FUSED_TRIGGER_MAX`] triggers falls back to
    /// the staged plan → resolve → commit directly on the batch (the
    /// merge stage would be an identity copy). Non-fused rounds merge
    /// [`RoundDriver::units`] and [`RoundDriver::batch`] — only one of
    /// the two is populated — in canonical order.
    pub(crate) fn apply(
        &mut self,
        tgds: &TgdSet,
        config: &ChaseConfig,
        core: &mut SessionCore,
        stats: &mut ChaseStats,
        mut helpers: Option<&mut Helpers<'_>>,
    ) -> Option<ChaseOutcome> {
        if self.round_fused {
            // Forced `Fused` means fused regardless of width (the enum's
            // contract); only `Auto` falls back to the staged stages past
            // the trigger ceiling.
            let outcome = if self.path == ApplyPath::Fused || self.batch.len() <= FUSED_TRIGGER_MAX
            {
                apply_fused(
                    tgds,
                    config,
                    &mut core.instance,
                    &mut core.apply,
                    &mut self.ws,
                    &self.batch,
                    stats,
                )
            } else {
                // The eager enumeration already merged: the batch is the
                // accepted batch.
                std::mem::swap(&mut self.batch, &mut self.bufs.accepted);
                self.apply_stages(tgds, config, core, stats, helpers, false)
            };
            let dt = self.lap();
            if self.sample {
                // Refresh the enumerate-share estimate from the two
                // measured spans of this round (simple EMA).
                let total = self.last_enum + dt;
                if total > 0.0 {
                    let obs = self.last_enum / total;
                    self.enum_share += (obs - self.enum_share) * 0.25;
                }
                stats.commit_secs += dt;
                stats.apply_secs += dt;
            } else {
                // One clock read covered enumerate + apply; split it by
                // the sampled ratio (the sum stays exact). Fused rounds
                // are per-trigger, so the enumerate share is all probe.
                let e = dt * self.enum_share;
                stats.enumerate_secs += e;
                stats.probe_secs += e;
                stats.commit_secs += dt - e;
                stats.apply_secs += dt - e;
            }
            return outcome;
        }
        merge_accepted(
            tgds,
            config.variant,
            self.units.iter().chain(std::iter::once(&self.batch)),
            &mut core.fired,
            &mut self.ws.key_buf,
            &mut self.bufs.accepted,
        );
        if let Some(h) = helpers.as_deref_mut() {
            h.recycle(&mut self.units);
        }
        stats.dedup_secs += self.lap();
        self.apply_stages(tgds, config, core, stats, helpers, true)
    }

    /// The staged plan → resolve → commit stages over
    /// [`RoundDriver::bufs`]`.accepted`. The resolve stage is shared
    /// with `helpers` once it plans [`RESOLVE_POOL_MIN`] triggers.
    /// Timing laps (resolve/commit spans) are taken only when `laps` is
    /// set; the fused fallback's caller accounts the whole span instead.
    fn apply_stages(
        &mut self,
        tgds: &TgdSet,
        config: &ChaseConfig,
        core: &mut SessionCore,
        stats: &mut ChaseStats,
        helpers: Option<&mut Helpers<'_>>,
        laps: bool,
    ) -> Option<ChaseOutcome> {
        plan_nulls(
            tgds,
            config,
            &mut core.apply.nulls,
            &self.bufs.accepted,
            &mut self.ws.key_buf,
            &mut self.bufs.plan,
        );
        let planned = self.bufs.plan.planned();
        let parts: &[ResolvedBatch] = match helpers {
            Some(h) if planned >= RESOLVE_POOL_MIN => {
                if let Err(err) = h.resolve(core, self, stats) {
                    return Some(ChaseOutcome::Failed(err));
                }
                h.resolved()
            }
            _ => {
                resolve_range(
                    &core.instance,
                    tgds,
                    config,
                    &self.bufs.accepted,
                    &self.bufs.plan,
                    (0, planned as u32),
                    &mut self.ws,
                    &mut self.bufs.resolved,
                );
                std::slice::from_ref(&self.bufs.resolved)
            }
        };
        let resolve = if laps {
            let r = lap_mark(&mut self.mark);
            stats.resolve_secs += r;
            r
        } else {
            0.0
        };
        let outcome = commit_batch(
            tgds,
            config,
            &mut core.instance,
            &mut core.apply,
            &self.bufs.accepted,
            &self.bufs.plan,
            parts,
            stats,
        );
        if laps {
            let commit = lap_mark(&mut self.mark);
            stats.commit_secs += commit;
            stats.apply_secs += resolve + commit;
        }
        outcome
    }
}

/// Advances a carry timestamp, returning the seconds since the previous
/// boundary — the timing primitive of the [`RoundDriver`] contract.
#[inline]
pub(crate) fn lap_mark(mark: &mut Instant) -> f64 {
    let now = Instant::now();
    let dt = (now - *mark).as_secs_f64();
    *mark = now;
    dt
}

/// Assembles the restricted-chase activeness seed: frontier variables
/// map to their (ground) binding images, everything else is free. One
/// definition shared by the resolve-stage snapshot pre-check and the
/// commit-stage re-check — the two must agree bit for bit, or the
/// split would change which triggers the restricted chase drops.
fn frontier_seed(tgd: &Tgd, binding: &[Term], out: &mut Vec<Option<Term>>) {
    out.clear();
    out.extend(binding.iter().enumerate().map(|(v, &t)| {
        let is_frontier = tgd.frontier().binary_search(&VarId(v as u32)).is_ok();
        (is_frontier && !t.is_var()).then_some(t)
    }));
}

/// Instantiates a rule atom under a complete term assignment `mu` (indexed
/// by dense variable id) into a reusable buffer.
pub(crate) fn instantiate_into(pattern: &nuchase_model::Atom, mu: &[Term], out: &mut Vec<Term>) {
    out.clear();
    out.extend(pattern.args.iter().map(|&t| match t {
        Term::Var(v) => mu[v.index()],
        ground => ground,
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::ChaseBudget;
    use nuchase_model::symbols::ConstId;

    fn c(i: u32) -> Term {
        Term::Const(ConstId(i))
    }

    #[test]
    fn trigger_batch_round_trips_bindings() {
        let mut b = TriggerBatch::new();
        assert!(b.is_empty());
        b.push(RuleId(0), &[Some(c(1)), None, Some(c(2))]);
        b.push(RuleId(3), &[Some(c(5))]);
        assert_eq!(b.len(), 2);
        let (r0, t0) = b.get(0);
        assert_eq!(r0, RuleId(0));
        assert_eq!(t0, &[c(1), Term::Var(VarId(1)), c(2)]);
        let (r1, t1) = b.get(1);
        assert_eq!((r1, t1), (RuleId(3), &[c(5)][..]));
        b.clear();
        assert!(b.is_empty());
        b.push(RuleId(1), &[Some(c(9))]);
        assert_eq!(b.get(0), (RuleId(1), &[c(9)][..]));
        // push_terms round-trips placeholder-form bindings verbatim.
        let mut b2 = TriggerBatch::new();
        let (r, t) = b.get(0);
        b2.push_terms(r, t);
        assert_eq!(b2.get(0), b.get(0));
    }

    #[test]
    fn round_tasks_are_canonical_and_cover_the_delta() {
        let p = nuchase_model::parse_program(
            "e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X).",
        )
        .unwrap();
        let mut tasks = Vec::new();
        // First round: pivot 0 only.
        round_tasks(&p.tgds, 0, 2, &mut tasks);
        assert_eq!(tasks.len(), 2);
        assert!(tasks.iter().all(|t| t.pivot == 0 && t.window == (0, 2)));
        // Later round: every pivot of every rule, rules in id order.
        round_tasks(&p.tgds, 2, 5, &mut tasks);
        assert_eq!(tasks.len(), 3); // 2 pivots + 1 pivot
        assert_eq!(tasks[0].rule, RuleId(0));
        assert_eq!((tasks[0].pivot, tasks[1].pivot), (0, 1));
        assert_eq!(tasks[2].rule, RuleId(1));
        assert!(tasks.iter().all(|t| t.window == (2, 5)));
        // Empty delta: no tasks.
        round_tasks(&p.tgds, 5, 5, &mut tasks);
        assert!(tasks.is_empty());
    }

    #[test]
    fn prepare_round_tasks_matches_rebuild() {
        let p = nuchase_model::parse_program(
            "e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X).",
        )
        .unwrap();
        let mut incr = Vec::new();
        let mut single = false;
        let mut fresh = Vec::new();
        // A round sequence crossing every shape transition: first round,
        // micro rounds (rebuild then in-place window patches), a wide
        // multi-window round, back to micro, and an empty delta.
        let wide = 7 + 3 * TASK_CHUNK;
        for (ds, len) in [
            (0, 2),
            (2, 5),
            (5, 7),
            (7, 9),
            (7, wide),
            (wide, wide + 1),
            (wide + 1, wide + 3),
            (wide + 3, wide + 3),
        ] {
            prepare_round_tasks(&p.tgds, ds, len, &mut incr, &mut single);
            round_tasks(&p.tgds, ds, len, &mut fresh);
            assert_eq!(incr, fresh, "delta [{ds}, {len})");
        }
    }

    #[test]
    fn apply_path_resolution_and_thresholds() {
        // An explicit config knob wins over the environment.
        let forced = ChaseConfig {
            apply_path: ApplyPath::Fused,
            ..Default::default()
        };
        assert_eq!(resolved_apply_path(&forced), ApplyPath::Fused);
        let forced = ChaseConfig {
            apply_path: ApplyPath::Pipeline,
            ..Default::default()
        };
        assert_eq!(resolved_apply_path(&forced), ApplyPath::Pipeline);
        // Auto honours the delta ceiling; forced paths ignore it.
        assert!(fused_round_delta(ApplyPath::Auto, 1));
        assert!(fused_round_delta(ApplyPath::Auto, FUSED_DELTA_MAX));
        assert!(!fused_round_delta(ApplyPath::Auto, FUSED_DELTA_MAX + 1));
        assert!(!fused_round_delta(ApplyPath::Pipeline, 1));
        assert!(fused_round_delta(ApplyPath::Fused, 1 << 20));
        // Batch decision: explicit choices ignore the floor, Auto
        // honours it.
        assert!(batch_round_delta(BatchEnum::On, 1));
        assert!(!batch_round_delta(BatchEnum::Off, 1 << 20));
        assert!(batch_round_delta(BatchEnum::Auto, BATCH_DELTA_MIN));
        assert!(!batch_round_delta(BatchEnum::Auto, BATCH_DELTA_MIN - 1));
        // Explicit batch knobs win over the environment.
        let on = ChaseConfig {
            batch_enum: BatchEnum::On,
            ..Default::default()
        };
        assert_eq!(resolved_batch_enum(&on), BatchEnum::On);
        let off = ChaseConfig {
            batch_enum: BatchEnum::Off,
            ..Default::default()
        };
        assert_eq!(resolved_batch_enum(&off), BatchEnum::Off);
    }

    #[test]
    fn batch_enumerators_match_per_trigger_enumerators() {
        // Same trigger batch, considered count, and bytes from both
        // enumeration paths, across variants (key sets differ).
        let p = nuchase_model::parse_program(
            "e(a, b).\ne(b, c).\ne(c, a).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X).",
        )
        .unwrap();
        for variant in [
            ChaseVariant::SemiOblivious,
            ChaseVariant::Oblivious,
            ChaseVariant::Restricted,
        ] {
            let ctx = RoundCtx {
                tgds: &p.tgds,
                variant,
                delta_start: 0,
            };
            let fired = TermTupleSet::new();
            let mut ws = WorkerScratch::new();
            let mut reference = TriggerBatch::new();
            let mut ref_considered = 0usize;
            let mut batch = TriggerBatch::new();
            let mut batch_considered = 0usize;
            let mut emit = 0.0f64;
            let mut tasks = Vec::new();
            round_tasks(&p.tgds, 0, p.database.len() as AtomIdx, &mut tasks);
            for &task in &tasks {
                ref_considered +=
                    enumerate_task(&p.database, ctx, task, &fired, &mut ws, &mut reference);
                batch_considered += enumerate_task_batch(
                    &p.database,
                    ctx,
                    task,
                    &fired,
                    &mut ws,
                    &mut batch,
                    &mut emit,
                );
            }
            assert_eq!(batch_considered, ref_considered, "{variant:?}");
            assert_eq!(batch.len(), reference.len(), "{variant:?}");
            for i in 0..batch.len() {
                assert_eq!(batch.get(i), reference.get(i), "{variant:?} trigger {i}");
            }
            assert!(emit >= 0.0);
        }
    }

    #[test]
    fn enumerate_task_filters_fired_and_within_task_duplicates() {
        // r(X, Y) -> s(X): frontier {X}; two facts share X, so the two
        // homomorphisms of one task dedup to one trigger.
        let p = nuchase_model::parse_program("r(a, b).\nr(a, c).\nr(X, Y) -> s(X).").unwrap();
        let mut ws = WorkerScratch::new();
        let mut batch = TriggerBatch::new();
        let fired = TermTupleSet::new();
        let task = Task {
            rule: RuleId(0),
            pivot: 0,
            window: (0, 2),
        };
        let ctx = RoundCtx {
            tgds: &p.tgds,
            variant: ChaseVariant::SemiOblivious,
            delta_start: 0,
        };
        let considered = enumerate_task(&p.database, ctx, task, &fired, &mut ws, &mut batch);
        assert_eq!(considered, 2);
        assert_eq!(batch.len(), 1);
        // A fired set containing the key suppresses the trigger entirely.
        let mut fired = TermTupleSet::new();
        fired.insert(&[p.database.atom(0).args[0]]);
        batch.clear();
        let considered = enumerate_task(&p.database, ctx, task, &fired, &mut ws, &mut batch);
        assert_eq!(considered, 2);
        assert!(batch.is_empty());
    }

    /// Shared setup: enumerate one round of a program and run the merge.
    fn enumerate_and_merge(
        text: &str,
        variant: ChaseVariant,
    ) -> (nuchase_model::Program, ApplyBuffers, Vec<TermTupleSet>) {
        let p = nuchase_model::parse_program(text).unwrap();
        let mut ws = WorkerScratch::new();
        let mut batch = TriggerBatch::new();
        let mut fired: Vec<TermTupleSet> = (0..p.tgds.len()).map(|_| TermTupleSet::new()).collect();
        let ctx = RoundCtx {
            tgds: &p.tgds,
            variant,
            delta_start: 0,
        };
        let mut tasks = Vec::new();
        round_tasks(&p.tgds, 0, p.database.len() as AtomIdx, &mut tasks);
        for &task in &tasks {
            enumerate_task(
                &p.database,
                ctx,
                task,
                &fired[task.rule.index()],
                &mut ws,
                &mut batch,
            );
        }
        let mut bufs = ApplyBuffers::new();
        merge_accepted(
            &p.tgds,
            variant,
            std::iter::once(&batch),
            &mut fired,
            &mut ws.key_buf,
            &mut bufs.accepted,
        );
        (p, bufs, fired)
    }

    #[test]
    fn merge_dedups_across_batches_in_canonical_order() {
        let p = nuchase_model::parse_program("r(a, b).\nr(a, c).\nr(X, Y) -> s(X).").unwrap();
        // Two batches carrying the same frontier key: only the first
        // occurrence survives the merge.
        let mut b1 = TriggerBatch::new();
        b1.push(RuleId(0), &[Some(c(0)), Some(c(1))]);
        let mut b2 = TriggerBatch::new();
        b2.push(RuleId(0), &[Some(c(0)), Some(c(2))]);
        let mut fired = vec![TermTupleSet::new()];
        let mut key_buf = Vec::new();
        let mut accepted = TriggerBatch::new();
        merge_accepted(
            &p.tgds,
            ChaseVariant::SemiOblivious,
            [&b1, &b2],
            &mut fired,
            &mut key_buf,
            &mut accepted,
        );
        assert_eq!(accepted.len(), 1);
        assert_eq!(accepted.get(0).1[1], c(1), "first occurrence wins");
        // Oblivious keys on all body variables: both survive.
        let mut fired = vec![TermTupleSet::new()];
        merge_accepted(
            &p.tgds,
            ChaseVariant::Oblivious,
            [&b1, &b2],
            &mut fired,
            &mut key_buf,
            &mut accepted,
        );
        assert_eq!(accepted.len(), 2);
    }

    #[test]
    fn plan_interns_in_canonical_order_and_respects_depth_budget() {
        let (p, mut bufs, _) = enumerate_and_merge(
            "r(a, b).\nr(c, d).\nr(X, Y) -> s(X, Z).",
            ChaseVariant::SemiOblivious,
        );
        assert_eq!(bufs.accepted.len(), 2);
        let config = ChaseConfig::default();
        let mut nulls = NullStore::new();
        let mut key_buf = Vec::new();
        plan_nulls(
            &p.tgds,
            &config,
            &mut nulls,
            &bufs.accepted,
            &mut key_buf,
            &mut bufs.plan,
        );
        assert_eq!(bufs.plan.planned(), 2);
        assert_eq!(nulls.len(), 2, "one null per frontier value, in order");
        assert_eq!(bufs.plan.ex_term(0, 0), Term::Null(NullId(0)));
        assert_eq!(bufs.plan.ex_term(1, 0), Term::Null(NullId(1)));
        assert_eq!(bufs.plan.pending(), None);
        // A depth budget of 0 stops the plan at the first trigger.
        let config = ChaseConfig {
            budget: ChaseBudget::depth(0, 1_000),
            ..Default::default()
        };
        let mut nulls = NullStore::new();
        plan_nulls(
            &p.tgds,
            &config,
            &mut nulls,
            &bufs.accepted,
            &mut key_buf,
            &mut bufs.plan,
        );
        assert_eq!(bufs.plan.planned(), 0);
        assert_eq!(bufs.plan.pending(), Some(ChaseOutcome::DepthLimit));
        assert_eq!(nulls.len(), 0, "nothing interned past the stop");
    }

    #[test]
    fn plan_reserves_provisional_ranges_for_the_restricted_chase() {
        let (p, mut bufs, _) = enumerate_and_merge(
            "r(a, b).\nr(c, d).\nr(X, Y) -> s(X, Z).",
            ChaseVariant::Restricted,
        );
        let config = ChaseConfig {
            variant: ChaseVariant::Restricted,
            ..Default::default()
        };
        let mut nulls = NullStore::new();
        let mut key_buf = Vec::new();
        plan_nulls(
            &p.tgds,
            &config,
            &mut nulls,
            &bufs.accepted,
            &mut key_buf,
            &mut bufs.plan,
        );
        assert_eq!(nulls.len(), 0, "restricted nulls are commit-assigned");
        assert_eq!(bufs.plan.provisional_base(0), 0);
        assert_eq!(bufs.plan.provisional_base(1), 1);
        assert_eq!(bufs.plan.ex_term(1, 0), Term::Null(NullId(1)));
    }

    #[test]
    fn resolve_precomputes_hashes_and_snapshot_containment() {
        // Full TGD whose conclusion already exists: the resolve stage
        // pre-answers the containment probe.
        let (p, mut bufs, _) = enumerate_and_merge(
            "e(a, b).\ne(b, a).\ne(a, a).\ne(X, Y), e(Y, X) -> e(X, X).",
            ChaseVariant::SemiOblivious,
        );
        let config = ChaseConfig::default();
        let mut nulls = NullStore::new();
        let mut key_buf = Vec::new();
        plan_nulls(
            &p.tgds,
            &config,
            &mut nulls,
            &bufs.accepted,
            &mut key_buf,
            &mut bufs.plan,
        );
        let mut ws = WorkerScratch::new();
        resolve_range(
            &p.database,
            &p.tgds,
            &config,
            &bufs.accepted,
            &bufs.plan,
            (0, bufs.plan.planned() as u32),
            &mut ws,
            &mut bufs.resolved,
        );
        let rb = &bufs.resolved;
        assert_eq!(rb.trigger_count() as usize, bufs.accepted.len());
        // The e(a,a)-producing trigger resolves to a snapshot hit at
        // index 2; the e(b,b) one resolves to a miss.
        let mut hits = 0;
        let mut misses = 0;
        for li in 0..rb.trigger_count() {
            for ai in rb.atom_range(li) {
                assert_eq!(rb.hashes[ai], hash_atom(rb.preds[ai], rb.atom_terms(ai)));
                match rb.snap[ai] {
                    Ok(idx) => {
                        hits += 1;
                        assert_eq!(p.database.atom(idx).args, rb.atom_terms(ai));
                    }
                    Err(_) => misses += 1,
                }
            }
        }
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn resolve_splits_are_equivalent_to_one_sweep() {
        let (p, mut bufs, _) = enumerate_and_merge(
            "r(a, b).\nr(c, d).\nr(e, f).\nr(X, Y) -> s(Y, Z), t(X).",
            ChaseVariant::SemiOblivious,
        );
        let config = ChaseConfig {
            record_provenance: true,
            build_forest: true,
            ..Default::default()
        };
        let mut nulls = NullStore::new();
        let mut key_buf = Vec::new();
        plan_nulls(
            &p.tgds,
            &config,
            &mut nulls,
            &bufs.accepted,
            &mut key_buf,
            &mut bufs.plan,
        );
        let n = bufs.plan.planned() as u32;
        assert_eq!(n, 3);
        let mut ws = WorkerScratch::new();
        let mut whole = ResolvedBatch::new();
        resolve_range(
            &p.database,
            &p.tgds,
            &config,
            &bufs.accepted,
            &bufs.plan,
            (0, n),
            &mut ws,
            &mut whole,
        );
        let mut left = ResolvedBatch::new();
        let mut right = ResolvedBatch::new();
        resolve_range(
            &p.database,
            &p.tgds,
            &config,
            &bufs.accepted,
            &bufs.plan,
            (0, 2),
            &mut ws,
            &mut left,
        );
        resolve_range(
            &p.database,
            &p.tgds,
            &config,
            &bufs.accepted,
            &bufs.plan,
            (2, n),
            &mut ws,
            &mut right,
        );
        // Concatenating the split outputs reproduces the sweep.
        assert_eq!(
            left.trigger_count() + right.trigger_count(),
            whole.trigger_count()
        );
        let cat_preds: Vec<PredId> = left.preds.iter().chain(&right.preds).copied().collect();
        assert_eq!(cat_preds, whole.preds);
        let cat_terms: Vec<Term> = left.terms.iter().chain(&right.terms).copied().collect();
        assert_eq!(cat_terms, whole.terms);
        let cat_hashes: Vec<u64> = left.hashes.iter().chain(&right.hashes).copied().collect();
        assert_eq!(cat_hashes, whole.hashes);
        let cat_parents: Vec<_> = left.parents.iter().chain(&right.parents).copied().collect();
        assert_eq!(cat_parents, whole.parents);
        let cat_bodies: Vec<_> = left
            .deriv_bodies
            .iter()
            .chain(&right.deriv_bodies)
            .copied()
            .collect();
        assert_eq!(cat_bodies, whole.deriv_bodies);
    }

    #[test]
    fn commit_rebases_provisional_nulls_past_dropped_triggers() {
        // Restricted: two triggers want s(a,⊥)/s(c,⊥); a third fact
        // s(a,x) satisfies the first head at the snapshot, so its
        // provisional null must be re-based away.
        let (p, mut bufs, _) = enumerate_and_merge(
            "r(a, b).\nr(c, d).\ns(a, x).\nr(X, Y) -> s(X, Z).",
            ChaseVariant::Restricted,
        );
        let config = ChaseConfig {
            variant: ChaseVariant::Restricted,
            ..Default::default()
        };
        let mut state = ApplyState::new(&config, p.database.len());
        let mut key_buf = Vec::new();
        plan_nulls(
            &p.tgds,
            &config,
            &mut state.nulls,
            &bufs.accepted,
            &mut key_buf,
            &mut bufs.plan,
        );
        let mut ws = WorkerScratch::new();
        let mut instance = p.database.clone();
        resolve_range(
            &instance,
            &p.tgds,
            &config,
            &bufs.accepted,
            &bufs.plan,
            (0, bufs.plan.planned() as u32),
            &mut ws,
            &mut bufs.resolved,
        );
        let mut stats = ChaseStats::default();
        let out = commit_batch(
            &p.tgds,
            &config,
            &mut instance,
            &mut state,
            &bufs.accepted,
            &bufs.plan,
            std::slice::from_ref(&bufs.resolved),
            &mut stats,
        );
        assert_eq!(out, None);
        assert_eq!(stats.triggers_fired, 1, "r(a,b)'s head was satisfied");
        assert_eq!(state.nulls.len(), 1, "one fresh null, id 0");
        // The committed atom carries the re-based null id 0, not the
        // provisional id it was resolved with.
        let last = instance.atom(instance.len() as u32 - 1);
        assert_eq!(last.args[1], Term::Null(NullId(0)));
    }
}
