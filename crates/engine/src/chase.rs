//! The chase procedure (Definition 3.2), in three flavours.
//!
//! The paper's object of study is the **semi-oblivious** chase: starting
//! from a database `D`, exhaustively apply active triggers `(σ, h)`, where
//! the null invented for existential `z` is `⊥^z_{σ, h|fr(σ)}`. Because
//! null identity depends only on `(σ, h|fr(σ))`, each such pair needs to
//! fire at most once, every valid derivation yields the same result set,
//! and `chase(D, Σ)` is well defined.
//!
//! For baselines and differential testing we also implement the
//! **oblivious** chase (fires once per full homomorphism `(σ, h)`) and the
//! **restricted** (standard) chase (fires only triggers whose head is not
//! already satisfiable by an extension of `h|fr(σ)`; fresh nulls per
//! firing; order-dependent).
//!
//! The engine is round-based and *fair* (Definition 3.2's fairness): every
//! round considers all triggers whose body image touches the atoms added
//! in the previous round (semi-naive evaluation), so no active trigger is
//! postponed forever. Budgets on atoms / rounds / null depth make the
//! possibly-infinite chase usable as a decision tool: the size and depth
//! characterizations of the paper turn budget exhaustion at the right
//! threshold into a proof of non-termination.
//!
//! # Hot-path layout
//!
//! The inner loop is engineered to be allocation-free per candidate:
//!
//! * rule bodies are matched through their precompiled
//!   [`MatchPlan`](nuchase_model::MatchPlan)s with one shared
//!   [`Scratch`], so the join performs no per-candidate allocations;
//! * trigger dedup hashes the frontier image (semi-oblivious) or the
//!   body-variable image (oblivious/restricted) *in place* against a
//!   per-rule [`TermTupleSet`](crate::dedup::TermTupleSet) — duplicate triggers, the overwhelming
//!   majority in late rounds, allocate nothing;
//! * pending trigger bindings live in one flat term arena per round;
//! * head atoms are instantiated into a reused buffer and inserted via
//!   [`Instance::insert_terms`], so rediscovering an existing atom
//!   allocates nothing.

use std::ops::ControlFlow;
use std::time::Instant;

use nuchase_model::plan::Scratch;
use nuchase_model::{Instance, Term, TgdSet, VarId};

use crate::fault::{ChaseError, FaultPlan};
use crate::forest::Forest;
use crate::nulls::NullStore;
use crate::provenance::Provenance;
use crate::session::{Engine, PreparedProgram};
use crate::telemetry::{TelemetryLevel, TelemetrySnapshot};

/// Which chase variant to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ChaseVariant {
    /// Semi-oblivious (the paper's chase): one firing per `(σ, h|fr(σ))`.
    #[default]
    SemiOblivious,
    /// Oblivious: one firing per `(σ, h)`.
    Oblivious,
    /// Restricted (standard): fire only if no extension of `h|fr(σ)` maps
    /// the head into the current instance; fresh nulls each firing.
    Restricted,
}

/// Resource budgets for a chase run. The chase may legitimately be
/// infinite; budgets let callers bound the exploration and interpret the
/// outcome (per the paper's size/depth characterizations, exceeding
/// `|D|·f_C(Σ)` atoms or `d_C(Σ)` depth proves non-termination for the
/// corresponding class).
#[derive(Clone, Copy, Debug)]
pub struct ChaseBudget {
    /// Stop once the instance holds at least this many atoms.
    pub max_atoms: usize,
    /// Stop after this many rounds.
    pub max_rounds: usize,
    /// Stop once a null of depth greater than this is created.
    pub max_depth: Option<u32>,
    /// Pause with a resumable [`ChaseOutcome::MemoryLimit`] at the first
    /// round boundary where the instance's heap bytes reach this
    /// ceiling. Unset falls back to the `NUCHASE_MEMORY_LIMIT_BYTES`
    /// environment knob; unset everywhere means no ceiling. A session
    /// that hit the ceiling is byte-identical to one that paused there;
    /// raising the ceiling and resuming completes identically to an
    /// unconstrained run.
    pub max_heap_bytes: Option<usize>,
}

impl Default for ChaseBudget {
    fn default() -> Self {
        ChaseBudget {
            max_atoms: 1_000_000,
            max_rounds: usize::MAX,
            max_depth: None,
            max_heap_bytes: None,
        }
    }
}

impl ChaseBudget {
    /// A budget bounded only by atom count.
    pub fn atoms(max_atoms: usize) -> Self {
        ChaseBudget {
            max_atoms,
            ..Default::default()
        }
    }

    /// A budget bounded by null depth (plus a safety atom cap).
    pub fn depth(max_depth: u32, max_atoms: usize) -> Self {
        ChaseBudget {
            max_atoms,
            max_rounds: usize::MAX,
            max_depth: Some(max_depth),
            ..Default::default()
        }
    }
}

/// Which apply path a chase run's rounds take. Purely a performance
/// choice: the two paths are byte-identical in every observable (atom
/// indexes, null ids, provenance, statistics counters), pinned by the
/// forced-path differential sweeps in `tests/properties.rs`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ApplyPath {
    /// Decide per round: micro-rounds — delta under
    /// [`crate::phase::FUSED_DELTA_MAX`] and trigger count under
    /// [`crate::phase::FUSED_TRIGGER_MAX`] — take the fused
    /// straight-line path, wide rounds the staged pipeline. The
    /// `NUCHASE_FORCE_PIPELINE` environment variable (`1` forces the
    /// pipeline, `0` the fused path) overrides the decision run-wide.
    #[default]
    Auto,
    /// Every round through the staged merge → plan → resolve → commit
    /// pipeline ([`crate::phase::commit_batch`] and friends).
    Pipeline,
    /// Every round through the fused per-trigger pass
    /// ([`crate::phase::apply_fused`]), regardless of width.
    Fused,
}

/// Whether wide rounds enumerate triggers through the batch (columnar
/// lane-program) path of
/// [`MatchPlan::for_each_hom_pivot_batch`](nuchase_model::MatchPlan::for_each_hom_pivot_batch)
/// instead of the per-trigger backtracking search. Purely a performance
/// choice: both paths deliver byte-identical trigger sequences (pinned by
/// the forced-path differential sweeps in `tests/properties.rs`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BatchEnum {
    /// Decide per round: deltas of at least
    /// [`crate::phase::BATCH_DELTA_MIN`] atoms take the batch path, narrow
    /// rounds the backtracking search. The `NUCHASE_FORCE_BATCH_ENUM`
    /// environment variable (`1` forces the batch path for every
    /// non-fused round, `0` disables it) overrides the decision run-wide.
    #[default]
    Auto,
    /// Every non-fused round through the batch path, regardless of delta
    /// width. Fused micro-rounds keep their eager per-trigger
    /// enumeration — batching a two-trigger round has nothing to
    /// amortize.
    On,
    /// Never use the batch path.
    Off,
}

/// Full configuration of a chase run.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// Variant to run.
    pub variant: ChaseVariant,
    /// Resource budgets.
    pub budget: ChaseBudget,
    /// Record the guarded chase forest (§5) during the run.
    pub build_forest: bool,
    /// Record per-atom derivation provenance (rule + body image).
    pub record_provenance: bool,
    /// Execution lanes. Every setting runs the same round loop on the
    /// calling thread; at `n ≥ 2` the engine keeps `n − 1` scheduler
    /// threads that help drain wide rounds' enumerate units and resolve
    /// ranges ([`crate::sched`]). `0` (the default) and `1` both mean
    /// the calling thread alone. Results and work counters are
    /// byte-identical at every setting (same atoms at the same indexes,
    /// same null ids).
    pub threads: usize,
    /// Apply-path selection (see [`ApplyPath`]); results are identical
    /// for every choice.
    pub apply_path: ApplyPath,
    /// Batch-enumeration selection for wide rounds (see [`BatchEnum`]);
    /// results are identical for every choice.
    pub batch_enum: BatchEnum,
    /// How much run telemetry to collect (see [`crate::telemetry`]).
    /// [`TelemetryLevel::Off`] (the default) may be raised run-wide by
    /// the `NUCHASE_TELEMETRY` environment variable (`counters` /
    /// `full`); an explicit non-`Off` config value wins over the
    /// environment. Results are byte-identical at every level.
    pub telemetry: TelemetryLevel,
    /// Deterministic fault-injection plan (see [`crate::fault`]). The
    /// default empty plan arms nothing and the injection sites compile
    /// to a single predictable branch; a non-empty plan here wins over
    /// the `NUCHASE_FAULT_PLAN` environment knob.
    pub fault_plan: FaultPlan,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            variant: ChaseVariant::default(),
            budget: ChaseBudget::default(),
            build_forest: false,
            record_provenance: false,
            threads: 0,
            apply_path: ApplyPath::default(),
            batch_enum: BatchEnum::default(),
            telemetry: TelemetryLevel::default(),
            fault_plan: FaultPlan::none(),
        }
    }
}

/// Why the chase stopped.
///
/// Not `Copy`: [`ChaseOutcome::Failed`] carries the typed
/// [`ChaseError`] (whose panic variant owns its message).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChaseOutcome {
    /// No active trigger remains: the chase **terminated** and the result
    /// is `chase(D, Σ)`.
    Terminated,
    /// The atom budget was exhausted.
    AtomLimit,
    /// The round budget was exhausted.
    RoundLimit,
    /// A null deeper than the depth budget was created.
    DepthLimit,
    /// A session run paused at a round boundary on a soft limit
    /// ([`crate::session::RunLimits`]); resuming continues
    /// byte-identically.
    Paused,
    /// A session run was cancelled between rounds via its cancellation
    /// handle ([`crate::session::ChaseSession::cancel_handle`]).
    Cancelled,
    /// A session run hit its deadline at a round boundary
    /// ([`crate::session::ChaseSession::set_deadline`] or
    /// [`crate::session::RunLimits::deadline`]).
    Deadline,
    /// The instance's heap bytes reached the configured ceiling
    /// ([`ChaseBudget::max_heap_bytes`] or `NUCHASE_MEMORY_LIMIT_BYTES`)
    /// at a round boundary. Resumable: the session is byte-identical to
    /// one that paused here; raise the ceiling (or free memory
    /// elsewhere) and resume to continue identically.
    MemoryLimit,
    /// The run failed with a typed error (see [`crate::fault`]): an
    /// injected fault (session rolled back to the last round boundary,
    /// resumable once the plan is disarmed) or a genuine panic (session
    /// poisoned; the engine and its worker pool survive).
    Failed(ChaseError),
}

impl ChaseOutcome {
    /// A stable lowercase token for the outcome — what the `serve`
    /// protocol prints (`Failed` carries its typed error separately;
    /// this names only the variant).
    pub fn name(&self) -> &'static str {
        match self {
            ChaseOutcome::Terminated => "terminated",
            ChaseOutcome::AtomLimit => "atom_limit",
            ChaseOutcome::RoundLimit => "round_limit",
            ChaseOutcome::DepthLimit => "depth_limit",
            ChaseOutcome::Paused => "paused",
            ChaseOutcome::Cancelled => "cancelled",
            ChaseOutcome::Deadline => "deadline",
            ChaseOutcome::MemoryLimit => "memory_limit",
            ChaseOutcome::Failed(_) => "failed",
        }
    }
}

/// Aggregate statistics of a chase run.
#[derive(Clone, Debug, Default)]
pub struct ChaseStats {
    /// Number of semi-naive rounds executed.
    pub rounds: usize,
    /// Triggers enumerated (before dedup).
    pub triggers_considered: usize,
    /// Triggers applied (after dedup / activeness checks).
    pub triggers_fired: usize,
    /// Atoms added beyond the database.
    pub atoms_created: usize,
    /// Nulls invented.
    pub nulls_created: usize,
    /// Wall-clock time of the run, in seconds.
    pub wall_secs: f64,
    /// Wall time spent enumerating triggers (phase 1 — the part that
    /// shards across workers; for a round shared with helpers this is
    /// the phase's *span*, not the summed worker time).
    pub enumerate_secs: f64,
    /// Wall time of the **probe** part of enumeration: finding candidate
    /// bindings — backtracking search or batch lane-program intersection.
    /// Together with [`ChaseStats::emit_secs`] this partitions
    /// `enumerate_secs` exactly (shared span boundaries). Per-trigger
    /// paths interleave probing and emission in one loop and account the
    /// whole span here; the sub-split is informative on batch rounds.
    pub probe_secs: f64,
    /// Wall time of the **emit** part of enumeration: draining
    /// materialized binding blocks through trigger dedup into the round's
    /// trigger batch. Zero on per-trigger rounds (their emission is
    /// accounted as probe — the two are one fused loop there).
    pub emit_secs: f64,
    /// Wall time spent in the authoritative trigger dedup merge.
    pub dedup_secs: f64,
    /// Wall time of the whole apply step past the merge. For pipeline
    /// rounds this is null plan + resolve + commit; for fused
    /// micro-rounds it is the whole fused pass. Exactly
    /// `resolve_secs + commit_secs` by construction (shared span
    /// boundaries, no re-reads of the clock).
    pub apply_secs: f64,
    /// Wall time of the resolve stage (deterministic null id plan + head
    /// instantiation/hashing/containment against the frozen snapshot —
    /// the part of apply that shards across workers; when shared with
    /// helpers this is the stage's *span*). Fused micro-rounds have no
    /// separate resolve stage and contribute nothing here.
    pub resolve_secs: f64,
    /// Wall time of the commit stage — the remaining serial section:
    /// bulk appends of pre-resolved atoms, activeness confirmation,
    /// provenance/forest recording, index splicing. A fused micro-round's
    /// whole apply pass (its dedup, nulls, instantiation, and inserts are
    /// one straight-line loop) is accounted here.
    pub commit_secs: f64,
    /// Wall time of shared-run bookkeeping outside the phase spans:
    /// taking a run that shared phases with helpers off the scheduler's
    /// board at its end. Zero on runs that never shared a phase.
    /// Separate from [`ChaseStats::commit_secs`] so the phase sums stay
    /// honest (`enumerate + dedup + apply + pool` covers the wall).
    pub pool_secs: f64,
    /// Rounds applied through the fused micro-round path (the rest went
    /// through the staged pipeline).
    pub fused_rounds: usize,
    /// Pipeline rounds whose trigger enumeration took the columnar batch
    /// path (a subset of `rounds - fused_rounds`).
    pub batched_rounds: usize,
    /// Heap bytes held by the instance (atom arena, hash index, posting
    /// lists) when the run ended. The instance is append-only, so this
    /// is also the run's peak. `absorb` takes the max.
    pub peak_instance_bytes: usize,
    /// Heap bytes held by the null store when the run ended (peak, as
    /// above). `absorb` takes the max.
    pub peak_null_bytes: usize,
    /// Load factor of the instance's atom hash table when the run ended
    /// (entries / slots, < 0.75 by construction). `absorb` keeps the
    /// max.
    pub instance_table_load: f64,
    /// Posting lists that outgrew their inline slots into the spill
    /// arena when the run ended. `absorb` keeps the max.
    pub index_spill_count: usize,
    /// Table probes issued through the batched/prefetched probe API —
    /// the block collectors' [`TermTupleSet::insert_batch`](crate::dedup::TermTupleSet::insert_batch)/
    /// [`TermTupleSet::locate_batch`](crate::dedup::TermTupleSet::locate_batch)
    /// passes plus the fused path's per-trigger probe queue (null-intern
    /// and head-atom prefetches). Every enumerate unit's probes are
    /// booked, whoever drained it, so the count is the same at every
    /// thread count. `absorb` sums.
    pub batched_probes: usize,
    /// High-water mark of the software prefetch queue: how many probes
    /// were in flight ahead of the walk that consumed them (the batch
    /// passes' lookahead distance, or the fused path's per-trigger
    /// null + head queue). `absorb` keeps the max.
    pub prefetch_queue_depth: usize,
    /// Armed fault-injection site hits that fired during the run (see
    /// [`crate::fault`]) — panic sites that unwound plus degradation
    /// sites that tripped. Zero on every fault-free run. `absorb` sums.
    pub faults_injected: usize,
    /// Spill-chunk allocations that fell back to heap chunks because
    /// the configured spill directory was unusable (graceful
    /// degradation; the run's bytes are unchanged). `absorb` sums.
    pub spill_fallbacks: usize,
    /// Transient (`EINTR`/`EAGAIN`-class) spill-I/O errors absorbed by
    /// the bounded retry loop. `absorb` sums.
    pub retries: usize,
    /// Wall time this session spent waiting on the shared scheduler
    /// ([`crate::sched`]): for a blocking run, the coordinator's
    /// end-of-phase waits for helper stragglers; for a submitted job
    /// ([`crate::session::Engine::submit`]), the time its slices sat
    /// queued behind other tenants. An *overlapping* gauge, not a phase:
    /// the phase timers already cover these spans (and a job's queue
    /// wait is outside [`ChaseStats::wall_secs`] entirely — its
    /// end-to-end latency is `sched_wait_secs + wall_secs`). Zero
    /// whenever the scheduler is never engaged. `absorb` sums.
    pub sched_wait_secs: f64,
    /// Peak scheduler occupancy observed during the run: busy workers /
    /// pool size, in `[0, 1]`, sampled at each engaged phase (blocking
    /// runs) or job slice (submitted jobs). A contention gauge — near
    /// 1.0 means this session shared the pool with other tenants. Zero
    /// whenever the scheduler is never engaged. `absorb` keeps the max.
    pub sched_occupancy: f64,
}

/// Probe-locality accounting carried out of the batch collectors and the
/// fused probe queue: how many probes went through the batched/prefetched
/// API and how deep the prefetch queue ran. Accumulated in
/// [`WorkerScratch`](crate::phase::WorkerScratch), drained per round (or
/// per shared unit) into [`ChaseStats::note_probe_flow`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeFlow {
    /// Probes issued through a batched (binned + prefetched) pass.
    pub batched_probes: usize,
    /// Deepest prefetch lookahead any pass ran with.
    pub queue_depth: usize,
}

impl ChaseStats {
    /// Accumulates another run's statistics into this one (counters and
    /// phase timers summed; end-of-run memory gauges maxed) — how a
    /// [`crate::session::ChaseSession`] folds per-run stats into its
    /// lifetime totals.
    pub fn absorb(&mut self, run: &ChaseStats) {
        self.rounds += run.rounds;
        self.triggers_considered += run.triggers_considered;
        self.triggers_fired += run.triggers_fired;
        self.atoms_created += run.atoms_created;
        self.nulls_created += run.nulls_created;
        self.wall_secs += run.wall_secs;
        self.enumerate_secs += run.enumerate_secs;
        self.probe_secs += run.probe_secs;
        self.emit_secs += run.emit_secs;
        self.dedup_secs += run.dedup_secs;
        self.apply_secs += run.apply_secs;
        self.resolve_secs += run.resolve_secs;
        self.commit_secs += run.commit_secs;
        self.pool_secs += run.pool_secs;
        self.fused_rounds += run.fused_rounds;
        self.batched_rounds += run.batched_rounds;
        self.peak_instance_bytes = self.peak_instance_bytes.max(run.peak_instance_bytes);
        self.peak_null_bytes = self.peak_null_bytes.max(run.peak_null_bytes);
        self.instance_table_load = self.instance_table_load.max(run.instance_table_load);
        self.index_spill_count = self.index_spill_count.max(run.index_spill_count);
        self.batched_probes += run.batched_probes;
        self.prefetch_queue_depth = self.prefetch_queue_depth.max(run.prefetch_queue_depth);
        self.faults_injected += run.faults_injected;
        self.spill_fallbacks += run.spill_fallbacks;
        self.retries += run.retries;
        self.sched_wait_secs += run.sched_wait_secs;
        self.sched_occupancy = self.sched_occupancy.max(run.sched_occupancy);
    }

    /// Folds one [`ProbeFlow`] drain into the run's probe-locality
    /// gauges (count summed, queue depth maxed).
    pub fn note_probe_flow(&mut self, flow: ProbeFlow) {
        self.batched_probes += flow.batched_probes;
        self.prefetch_queue_depth = self.prefetch_queue_depth.max(flow.queue_depth);
    }

    /// Derived throughput: atoms created per second of wall time.
    pub fn atoms_per_sec(&self) -> f64 {
        self.atoms_created as f64 / self.wall_secs.max(1e-12)
    }

    /// Derived throughput: triggers considered per second of wall time.
    pub fn triggers_per_sec(&self) -> f64 {
        self.triggers_considered as f64 / self.wall_secs.max(1e-12)
    }

    /// Derived: average triggers enumerated per round — the fixed-cost
    /// indicator for chain-shaped chases (a value near 1 means the run
    /// pays every per-round fixed cost per *trigger*, which is what the
    /// fused micro-round path amortizes).
    pub fn avg_triggers_per_round(&self) -> f64 {
        self.triggers_considered as f64 / self.rounds.max(1) as f64
    }

    /// One-line round-shape + per-phase wall-time breakdown, e.g.
    /// `49743 rounds (1.0 trig/round, 100% fused, 0 batched) ·
    /// enumerate 62.1% (probe 55.0% + emit 7.1%) · dedup 3.0% · resolve
    /// 20.1% · commit 10.2%` — what makes a speedup (or its absence)
    /// attributable to a phase. `probe` and `emit` partition
    /// `enumerate_secs`, `resolve` and `commit` partition `apply_secs`;
    /// only `commit` (plus `dedup`) is inherently serial, and fused
    /// micro-rounds land entirely in `commit`. Runs that shared phases
    /// with helpers append their ` · pool` bookkeeping share.
    pub fn phase_summary(&self) -> String {
        let pct = |s: f64| 100.0 * s / self.wall_secs.max(1e-12);
        let mut out = format!(
            "{} rounds ({:.1} trig/round, {:.0}% fused, {} batched) · \
             enumerate {:.1}% (probe {:.1}% + emit {:.1}%) · \
             dedup {:.1}% · resolve {:.1}% · commit {:.1}%",
            self.rounds,
            self.avg_triggers_per_round(),
            100.0 * self.fused_rounds as f64 / self.rounds.max(1) as f64,
            self.batched_rounds,
            pct(self.enumerate_secs),
            pct(self.probe_secs),
            pct(self.emit_secs),
            pct(self.dedup_secs),
            pct(self.resolve_secs),
            pct(self.commit_secs),
        );
        if self.pool_secs > 0.0 {
            out.push_str(&format!(" · pool {:.1}%", pct(self.pool_secs)));
        }
        if self.sched_wait_secs > 0.0 || self.sched_occupancy > 0.0 {
            out.push_str(&format!(
                " · sched wait {:.1}% (occupancy ≤ {:.0}%)",
                pct(self.sched_wait_secs),
                100.0 * self.sched_occupancy
            ));
        }
        if self.batched_probes > 0 {
            out.push_str(&format!(
                " · {} batched probes (queue ≤ {})",
                self.batched_probes, self.prefetch_queue_depth
            ));
        }
        if self.faults_injected + self.spill_fallbacks + self.retries > 0 {
            out.push_str(&format!(
                " · faults {} (spill fallbacks {}, retries {})",
                self.faults_injected, self.spill_fallbacks, self.retries
            ));
        }
        out
    }
}

/// The result of a chase run.
#[derive(Debug, Clone)]
pub struct ChaseResult {
    /// The (partial, if a budget hit) chase instance, database included.
    pub instance: Instance,
    /// Null provenance and depth store.
    pub nulls: NullStore,
    /// Why the run stopped.
    pub outcome: ChaseOutcome,
    /// Run statistics.
    pub stats: ChaseStats,
    /// The guarded chase forest, if requested.
    pub forest: Option<Forest>,
    /// Per-atom derivation provenance, if requested.
    pub provenance: Option<Provenance>,
    /// Telemetry snapshot, when the run collected any
    /// ([`ChaseConfig::telemetry`] or `NUCHASE_TELEMETRY`).
    pub telemetry: Option<Box<TelemetrySnapshot>>,
}

impl ChaseResult {
    /// Did the chase terminate (i.e. is `instance` all of `chase(D, Σ)`)?
    pub fn terminated(&self) -> bool {
        self.outcome == ChaseOutcome::Terminated
    }

    /// `maxdepth(D, Σ)` (Definition 4.3) over the constructed instance.
    /// Only the full `maxdepth(D,Σ)` when `terminated()`.
    pub fn max_depth(&self) -> u32 {
        self.nulls.max_depth()
    }

    /// Histogram of *atom* depths: `hist[d]` = number of atoms of depth
    /// `d` (§5 transfers term depth to atoms as the max over arguments).
    pub fn atom_depth_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.max_depth() as usize + 1];
        for atom in self.instance.iter() {
            hist[self.nulls.atom_depth(atom) as usize] += 1;
        }
        hist
    }

    /// Verifies `instance ⊨ Σ` — meaningful after termination; used by
    /// tests to check the chase produces a model.
    pub fn is_model_of(&self, tgds: &TgdSet) -> bool {
        let mut scratch = Scratch::new();
        let mut head_scratch = Scratch::new();
        let mut seed: Vec<Option<Term>> = Vec::new();
        for (_, tgd) in tgds.iter() {
            let mut ok = true;
            tgd.body_plan()
                .for_each_hom(&self.instance, &mut scratch, |binding| {
                    seed.clear();
                    seed.extend(binding.iter().enumerate().map(|(v, t)| {
                        if tgd.frontier().binary_search(&VarId(v as u32)).is_ok() {
                            *t
                        } else {
                            None
                        }
                    }));
                    if !tgd
                        .head_plan()
                        .exists_hom_seeded(&self.instance, &seed, &mut head_scratch)
                    {
                        ok = false;
                        return ControlFlow::Break(());
                    }
                    ControlFlow::Continue(())
                });
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Runs the chase of `database` w.r.t. `tgds` under `config` — at any
/// [`ChaseConfig::threads`], with byte-identical results.
///
/// A one-shot shortcut over the prepared-program engine
/// ([`crate::session`]): each call compiles `tgds` into a transient
/// [`PreparedProgram`] and runs a one-shot [`Engine`] (whose scheduler,
/// at `threads ≥ 2`, lives for this call). Callers chasing many
/// databases against one Σ should prepare once and reuse an engine —
/// see the session module docs.
pub fn chase(database: &Instance, tgds: &TgdSet, config: &ChaseConfig) -> ChaseResult {
    let started = Instant::now();
    let program = PreparedProgram::compile(tgds.clone());
    Engine::from_config(config).chase_with_mark(&program, database, started)
}

/// Convenience: runs the semi-oblivious chase with an atom budget.
pub fn semi_oblivious_chase(database: &Instance, tgds: &TgdSet, max_atoms: usize) -> ChaseResult {
    chase(
        database,
        tgds,
        &ChaseConfig {
            variant: ChaseVariant::SemiOblivious,
            budget: ChaseBudget::atoms(max_atoms),
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuchase_model::parser::parse_program;

    fn run(text: &str, max_atoms: usize) -> ChaseResult {
        let p = parse_program(text).unwrap();
        semi_oblivious_chase(&p.database, &p.tgds, max_atoms)
    }

    #[test]
    fn terminating_transitive_closure_style() {
        // Full TGD (no existentials): terminates.
        let r = run(
            "e(a, b).\ne(b, c).\ne(c, d).\ne(X, Y), e(Y, Z) -> e(X, Z).",
            10_000,
        );
        assert!(r.terminated());
        // e-closure of a 3-edge path: 3 + 2 + 1 = 6 atoms.
        assert_eq!(r.instance.len(), 6);
        assert_eq!(r.max_depth(), 0);
    }

    #[test]
    fn infinite_successor_chain_hits_budget() {
        // The paper's §3 example: R(x,y) → ∃z R(y,z) on {R(a,b)} is infinite.
        let r = run("r(a, b).\nr(X, Y) -> r(Y, Z).", 100);
        assert_eq!(r.outcome, ChaseOutcome::AtomLimit);
        assert!(r.instance.len() >= 100);
    }

    #[test]
    fn semi_oblivious_dedups_by_frontier() {
        // σ: R(x,y) → ∃z S(x,z). Two facts sharing x must create ONE null
        // (frontier {x} has the same image).
        let r = run("r(a, b).\nr(a, c).\nr(X, Y) -> s(X, Z).", 1000);
        assert!(r.terminated());
        assert_eq!(r.stats.nulls_created, 1);
        assert_eq!(r.instance.len(), 3);
    }

    #[test]
    fn oblivious_fires_per_full_homomorphism() {
        let p = parse_program("r(a, b).\nr(a, c).\nr(X, Y) -> s(X, Z).").unwrap();
        let r = chase(
            &p.database,
            &p.tgds,
            &ChaseConfig {
                variant: ChaseVariant::Oblivious,
                ..Default::default()
            },
        );
        assert!(r.terminated());
        // Oblivious: one null per (σ, h) = per fact.
        assert_eq!(r.stats.nulls_created, 2);
        assert_eq!(r.instance.len(), 4);
    }

    #[test]
    fn restricted_skips_satisfied_heads() {
        // D = {r(a,b), s(a,c)}; σ: r(x,y) → ∃z s(x,z). Restricted chase
        // sees s(a,c) already witnesses the head → no new atom.
        let p = parse_program("r(a, b).\ns(a, c).\nr(X, Y) -> s(X, Z).").unwrap();
        let r = chase(
            &p.database,
            &p.tgds,
            &ChaseConfig {
                variant: ChaseVariant::Restricted,
                ..Default::default()
            },
        );
        assert!(r.terminated());
        assert_eq!(r.instance.len(), 2);
        // Semi-oblivious fires anyway:
        let r2 = semi_oblivious_chase(&p.database, &p.tgds, 1000);
        assert_eq!(r2.instance.len(), 3);
    }

    #[test]
    fn empty_frontier_nulls_have_depth_one() {
        // Def 4.3: depth(⊥^z_{σ,h}) = 1 + max({depth(h(x)) | x ∈ fr(σ)} ∪ {0}).
        // With fr(σ) = ∅ every null has depth exactly 1, no matter how
        // "late" it is derived.
        let r = run("p0(a).\np0(X) -> p1(Z).\np1(X) -> p2(Z).", 1000);
        assert!(r.terminated());
        assert_eq!(r.max_depth(), 1);
    }

    #[test]
    fn depth_tracking_matches_definition() {
        // Depth chains through the frontier: each null's depth is one more
        // than the deepest frontier image.
        let r = run(
            "p0(a, b).\np0(X, Y) -> p1(Y, Z).\np1(X, Y) -> p2(Y, Z).\np2(X, Y) -> p3(Y, Z).",
            1000,
        );
        assert!(r.terminated());
        assert_eq!(r.max_depth(), 3);
        let hist = r.atom_depth_histogram();
        assert_eq!(hist, vec![1, 1, 1, 1]);
    }

    #[test]
    fn depth_budget_detects_deep_chains() {
        let r = {
            let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
            chase(
                &p.database,
                &p.tgds,
                &ChaseConfig {
                    budget: ChaseBudget::depth(5, 1_000_000),
                    ..Default::default()
                },
            )
        };
        assert_eq!(r.outcome, ChaseOutcome::DepthLimit);
    }

    #[test]
    fn result_is_a_model_when_terminated() {
        let r = run(
            "e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X).",
            10_000,
        );
        assert!(r.terminated());
        let p = parse_program("e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X).")
            .unwrap();
        assert!(r.is_model_of(&p.tgds));
    }

    #[test]
    fn determinism_under_rule_permutation() {
        // chase(D, Σ) is a well-defined set: permuting rules must give the
        // same atoms (modulo null ids — here we compare counts and
        // structure via sorted rendering of null-free projections).
        let t1 = "r(a, b).\nr(X, Y) -> s(Y, Z).\ns(X, Y) -> t(X).\nr(X, Y) -> t(X).";
        let t2 = "r(a, b).\nr(X, Y) -> t(X).\ns(X, Y) -> t(X).\nr(X, Y) -> s(Y, Z).";
        let r1 = run(t1, 1000);
        let r2 = run(t2, 1000);
        assert!(r1.terminated() && r2.terminated());
        assert_eq!(r1.instance.len(), r2.instance.len());
        assert_eq!(r1.stats.nulls_created, r2.stats.nulls_created);
    }

    #[test]
    fn unfair_derivations_are_not_produced() {
        // §3: Σ = {R(x,y) → ∃z R(y,z), R(x,y) → P(x,y)}. A fair chase must
        // also produce P-atoms even though the R-rule alone can run
        // forever. With an atom budget, both predicates must appear.
        let r = run("r(a, b).\nr(X, Y) -> r(Y, Z).\nr(X, Y) -> p(X, Y).", 200);
        assert_eq!(r.outcome, ChaseOutcome::AtomLimit);
        let preds: std::collections::HashSet<_> = r.instance.iter().map(|a| a.pred).collect();
        assert_eq!(preds.len(), 2, "fairness: both R and P atoms appear");
        // The two predicates appear in near-equal numbers: every R-atom
        // eventually spawns a P-atom.
        let mut counts = std::collections::HashMap::new();
        for a in r.instance.iter() {
            *counts.entry(a.pred).or_insert(0usize) += 1;
        }
        let min = counts.values().min().copied().unwrap();
        assert!(min > 40, "both predicates keep growing, got min {min}");
    }

    #[test]
    fn zero_ary_heads_work() {
        let r = run("r(a).\nr(X) -> halted.", 100);
        assert!(r.terminated());
        assert_eq!(r.instance.len(), 2);
    }

    #[test]
    fn stats_report_wall_time_and_throughput() {
        let r = run("r(a, b).\nr(X, Y) -> r(Y, Z).", 5_000);
        assert!(r.stats.wall_secs > 0.0);
        assert!(r.stats.atoms_per_sec() > 0.0);
        assert!(r.stats.triggers_per_sec() > 0.0);
    }

    #[test]
    fn phase_accounting_is_consistent() {
        let text = "r(a, b).\nr(X, Y) -> r(Y, Z).";
        let p = parse_program(text).unwrap();
        let budget = ChaseBudget::atoms(5_000);
        // Pipeline path: resolve + commit partition apply; nothing fused.
        let pipe = chase(
            &p.database,
            &p.tgds,
            &ChaseConfig {
                budget,
                apply_path: ApplyPath::Pipeline,
                ..Default::default()
            },
        );
        let s = &pipe.stats;
        assert_eq!(s.fused_rounds, 0);
        assert!(s.apply_secs > 0.0 && s.resolve_secs > 0.0 && s.commit_secs > 0.0);
        let sum = s.resolve_secs + s.commit_secs;
        assert!(
            (sum - s.apply_secs).abs() <= 1e-6 + 0.01 * s.apply_secs,
            "resolve {} + commit {} vs apply {}",
            s.resolve_secs,
            s.commit_secs,
            s.apply_secs
        );
        // Fused path: every round fused, the whole apply pass accounted
        // as commit, no resolve/dedup spans.
        let fused = chase(
            &p.database,
            &p.tgds,
            &ChaseConfig {
                budget,
                apply_path: ApplyPath::Fused,
                ..Default::default()
            },
        );
        let s = &fused.stats;
        assert_eq!(s.fused_rounds, s.rounds);
        assert_eq!(s.resolve_secs, 0.0);
        assert_eq!(s.dedup_secs, 0.0);
        assert!(
            (s.commit_secs - s.apply_secs).abs() <= 1e-6 + 0.01 * s.apply_secs,
            "fused commit {} vs apply {}",
            s.commit_secs,
            s.apply_secs
        );
        // The spans are carried boundary-to-boundary, so they cover the
        // wall (up to the post-loop tail).
        for s in [&pipe.stats, &fused.stats] {
            let covered = s.enumerate_secs + s.dedup_secs + s.apply_secs;
            assert!(
                covered <= s.wall_secs && covered >= 0.5 * s.wall_secs,
                "phases {covered} vs wall {}",
                s.wall_secs
            );
            // probe + emit partition enumerate (shared span boundaries).
            let enum_sum = s.probe_secs + s.emit_secs;
            assert!(
                (enum_sum - s.enumerate_secs).abs() <= 1e-6 + 0.01 * s.enumerate_secs,
                "probe {} + emit {} vs enumerate {}",
                s.probe_secs,
                s.emit_secs,
                s.enumerate_secs
            );
        }
        // This chain workload considers exactly one trigger per round.
        assert!((fused.stats.avg_triggers_per_round() - 1.0).abs() < 0.01);
        assert!(fused.stats.phase_summary().contains("fused"));
        assert!(pipe.stats.phase_summary().contains("commit"));
    }
}
