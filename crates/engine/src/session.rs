//! The prepared-program engine surface — compile once, chase many — and
//! the one round loop every chase runs.
//!
//! The free function [`crate::chase::chase`] is shaped for one-off runs:
//! every call re-derives program metadata, re-allocates the round
//! buffers, and (for multi-threaded runs) spins a worker pool up and
//! back down. That is exactly wrong for the serving shape this
//! workspace grows toward — one fixed Σ compiled once, run against many
//! small databases and incremental updates. This module splits the
//! engine into three owned types along those lines:
//!
//! * [`PreparedProgram`] — a [`TgdSet`] compiled once (match plans are
//!   built at TGD construction; preparing pins them behind an `Arc`
//!   alongside the per-program classification the round loops branch
//!   on: the single-atom-body/fused-path gate, the syntactic TGD class,
//!   and an optional externally computed uniform-termination verdict);
//! * [`Engine`] — the builder-configured execution policy (variant,
//!   threads, apply path, budgets) plus everything reusable *across*
//!   chases: a persistent scheduler whose threads park between runs
//!   instead of being respawned, and recycled session buffers (per-rule
//!   fired sets, [`RoundDriver`] arenas);
//! * [`ChaseSession`] — one in-progress or finished chase: it owns the
//!   [`Instance`], [`NullStore`], fired sets, and statistics, supports
//!   [`ChaseSession::run`] to a budget, [`ChaseSession::add_atoms`] +
//!   [`ChaseSession::resume`] for incremental chasing, cancellation and
//!   deadline checks between rounds, and consumes into the classic
//!   [`ChaseResult`] via [`ChaseSession::finish`].
//!
//! # One round loop
//!
//! Every run — a blocking [`ChaseSession::run`] at any thread count, or
//! one slice of an [`Engine::submit`] job — goes through
//! `SessionCore::run` into the same loop over the canonical
//! `(rule, pivot, window)` task list. `threads` decides one thing only:
//! at `threads ≥ 2`, a wide round's units and a wide resolve stage's
//! ranges are shared with the scheduler's helpers ([`crate::sched`]).
//! Because the semi-oblivious chase is derivation-independent, who
//! drains a unit cannot change what it computes; results and work
//! counters are identical at every thread count (`tests/properties.rs`
//! pins both).
//!
//! # Incremental chasing and what "resume" guarantees
//!
//! The paper's semi-oblivious chase makes `chase(D, Σ)` a canonical,
//! derivation-independent **set**: triggers fire at most once per
//! `(σ, h|fr(σ))` and nulls are interned by provenance. Two consequences
//! power the session API, with deliberately different strength:
//!
//! * **Pausing is free.** A session paused *between rounds* — via
//!   [`RunLimits`] (atom/round caps, a deadline) or cancellation — and
//!   then resumed executes exactly the round sequence an uninterrupted
//!   run would have: the result is **byte-identical** (same atoms at
//!   the same indexes, same null ids, same provenance and forest, same
//!   counters) for *every* variant and thread count. The resume
//!   differential suite (`tests/session_resume.rs`) pins this.
//! * **New atoms splice in as a delta.** [`ChaseSession::add_atoms`]
//!   appends fresh database atoms and [`ChaseSession::resume`] chases
//!   them semi-naively against everything derived so far. For the
//!   provenance-keyed variants (semi-oblivious, oblivious) confluence
//!   makes the resumed result **canonically identical** to a
//!   from-scratch chase of `D ∪ A`: the same atom set and null set
//!   (with matching depths) under the provenance-keyed null names
//!   (`⊥^z_{σ, h|fr}` resolved recursively). Atom *indexes* and raw
//!   null *ids* reflect arrival order — necessarily, since
//!   from-scratch interleaves derivations the incremental run has
//!   already finished — and provenance/forest record the incremental
//!   history's (valid) derivations, which may differ from
//!   from-scratch's when an atom has several. The restricted chase is
//!   order-dependent by definition, so its resume guarantee is pinned
//!   at set-equality on confluent (existential-free) workloads only.
//! * **Hard budget stops recover soundly.** A [`ChaseBudget`] stop
//!   lands *mid-round* (mid-commit, even): the fired sets already hold
//!   keys of accepted-but-unfired triggers. Resuming after such a stop
//!   first rolls the fired sets back to their round-start watermarks
//!   ([`crate::dedup::TermTupleSet::truncate`]) and replays the round
//!   — idempotently for the interned-null variants (re-inserting an
//!   existing atom or re-interning an existing null is a no-op), so
//!   the final *set* is again canonical; the replayed round makes the
//!   work counters (rounds, triggers) honestly larger than an
//!   uninterrupted run's.
//!
//! # Example: compile once, chase many
//!
//! ```
//! use nuchase_engine::{Engine, PreparedProgram};
//!
//! let p = nuchase_model::parse_program(
//!     "parent(alice, bob).\nparent(X, Y) -> person(Y).\nperson(X) -> named(X, N).",
//! )
//! .unwrap();
//! // Compile Σ once…
//! let program = PreparedProgram::compile(p.tgds);
//! let engine = Engine::builder().build();
//! // …and chase as many databases as arrive.
//! let result = engine.chase(&program, &p.database);
//! assert!(result.terminated());
//! assert_eq!(result.instance.len(), 3); // parent + person + named
//! let again = engine.chase(&program, &p.database);
//! assert!(again.instance.indexed_eq(&result.instance));
//! ```
//!
//! # Example: incremental resume
//!
//! ```
//! use nuchase_engine::{Engine, PreparedProgram};
//!
//! let p = nuchase_model::parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
//! let extra = nuchase_model::parse_program("r(a, b).\nr(c, d).").unwrap();
//! let program = PreparedProgram::compile(p.tgds);
//! let engine = Engine::builder().build();
//!
//! let mut session = engine.session(&program, &p.database);
//! session.run();
//! assert!(session.terminated());
//! assert_eq!(session.instance().len(), 2); // r(a,b), s(a,⊥)
//!
//! // New database atoms arrive: chase just the delta.
//! let added = session.add_atoms(extra.database.iter().map(|a| a.to_atom()));
//! assert_eq!(added, 1); // r(a,b) was already present
//! session.resume();
//! assert!(session.terminated());
//! assert_eq!(session.instance().len(), 4); // + r(c,d), s(c,⊥)
//! assert_eq!(session.runs(), 2);
//! ```
//!
//! # Example: run to a soft budget, inspect, resume
//!
//! ```
//! use nuchase_engine::{ChaseOutcome, Engine, PreparedProgram, RunLimits};
//!
//! // An infinite chase, consumed in bounded slices.
//! let p = nuchase_model::parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
//! let program = PreparedProgram::compile(p.tgds);
//! let engine = Engine::builder().build();
//! let mut session = engine.session(&program, &p.database);
//!
//! let paused = session.run_limited(&RunLimits::atoms(100));
//! assert_eq!(paused, ChaseOutcome::Paused);
//! assert!(session.instance().len() >= 100);
//! session.run_limited(&RunLimits::atoms(200)); // …byte-identically onward
//! assert!(session.instance().len() >= 200);
//! assert_eq!(session.stats().rounds, session.instance().len() - 1);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nuchase_model::{Atom, AtomIdx, Instance, TgdClass, TgdSet};

use crate::chase::{ChaseBudget, ChaseConfig, ChaseOutcome, ChaseResult, ChaseStats, ChaseVariant};
use crate::dedup::TermTupleSet;
use crate::fault::{ChaseError, FaultPlan, FaultSite};
use crate::nulls::NullStore;
use crate::phase::{
    enumerate_task, enumerate_task_batch, enumerate_task_eager, fused_chain_round, ApplyState,
    RoundCtx, RoundDriver, WorkerScratch,
};
use crate::sched::{Helpers, JobHandle, Scheduler};
use crate::telemetry::{RoundPath, TelemetryLevel, TelemetrySnapshot};

/// A TGD set compiled once for any number of chases.
///
/// Match plans are compiled when each [`nuchase_model::Tgd`] is
/// constructed; preparing a program pins the whole set behind an `Arc`
/// (so a persistent worker pool can borrow it across runs without
/// re-cloning) and derives the per-program metadata every run would
/// otherwise recompute: the single-atom-body classification gating the
/// fused chain micro-round, and the syntactic TGD class. An optional
/// uniform-termination verdict can be attached by callers that ran the
/// `nuchase` deciders (the engine crate cannot depend on them — the
/// dependency points the other way).
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    tgds: Arc<TgdSet>,
    single_atom_bodies: bool,
    class: TgdClass,
    uniform: Option<bool>,
}

impl PreparedProgram {
    /// Compiles a TGD set into a prepared program.
    pub fn compile(tgds: TgdSet) -> Self {
        Self::from_shared(Arc::new(tgds))
    }

    /// Prepares an already-shared TGD set (no copy).
    pub fn from_shared(tgds: Arc<TgdSet>) -> Self {
        let single_atom_bodies = crate::phase::single_atom_bodies(&tgds);
        let class = tgds.classify();
        PreparedProgram {
            tgds,
            single_atom_bodies,
            class,
            uniform: None,
        }
    }

    /// The compiled rules.
    pub fn tgds(&self) -> &TgdSet {
        &self.tgds
    }

    /// The shared handle to the compiled rules (what a run sharing a
    /// phase hands its helpers).
    pub(crate) fn shared_tgds(&self) -> Arc<TgdSet> {
        Arc::clone(&self.tgds)
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.tgds.len()
    }

    /// The syntactic class of the program (`SL ⊊ L ⊊ G` or general),
    /// computed once at preparation.
    pub fn class(&self) -> TgdClass {
        self.class
    }

    /// Is every rule body a single atom? When true, fused micro-rounds
    /// run as chain rounds (enumerate + dedup + fire in one pass) — the
    /// classification is computed here once instead of per run.
    pub fn single_atom_bodies(&self) -> bool {
        self.single_atom_bodies
    }

    /// Attaches a uniform-termination verdict (does the chase terminate
    /// on *every* database?) computed by an external decider — e.g.
    /// `nuchase::uniform` or weak acyclicity. Purely advisory metadata:
    /// the engine never acts on it, but servers keeping one
    /// `PreparedProgram` per ontology get a natural home for the
    /// analysis they ran at load time.
    pub fn with_uniform_verdict(mut self, terminates_on_all_databases: bool) -> Self {
        self.uniform = Some(terminates_on_all_databases);
        self
    }

    /// The attached uniform-termination verdict, if any.
    pub fn uniform_verdict(&self) -> Option<bool> {
        self.uniform
    }

    /// One-line human summary of the prepared program.
    pub fn summary(&self) -> String {
        format!(
            "{} rules, class {}, {}{}",
            self.rule_count(),
            self.class.short_name(),
            if self.single_atom_bodies {
                "single-atom bodies (chain-fusable)"
            } else {
                "multi-atom bodies"
            },
            match self.uniform {
                Some(true) => ", uniformly terminating",
                Some(false) => ", not uniformly terminating",
                None => "",
            }
        )
    }
}

impl From<TgdSet> for PreparedProgram {
    fn from(tgds: TgdSet) -> Self {
        PreparedProgram::compile(tgds)
    }
}

/// Builder for [`Engine`] — the chase execution policy, one knob per
/// [`ChaseConfig`] field.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    config: ChaseConfig,
}

impl EngineBuilder {
    /// The chase variant to run (default: semi-oblivious).
    pub fn variant(mut self, variant: ChaseVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Execution lanes: `0` (default) and `1` run every round on the
    /// calling thread alone; `n ≥ 2` adds a persistent pool of `n − 1`
    /// scheduler threads that help drain wide rounds. Every setting runs
    /// the same round loop, and results are byte-identical at every
    /// setting.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Apply-path selection (see [`crate::chase::ApplyPath`]).
    pub fn apply_path(mut self, path: crate::chase::ApplyPath) -> Self {
        self.config.apply_path = path;
        self
    }

    /// Default hard resource budgets for runs (see [`ChaseBudget`]);
    /// adjustable per session via [`ChaseSession::set_budget`].
    pub fn budget(mut self, budget: ChaseBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Record the guarded chase forest during runs.
    pub fn build_forest(mut self, on: bool) -> Self {
        self.config.build_forest = on;
        self
    }

    /// Record per-atom derivation provenance during runs.
    pub fn record_provenance(mut self, on: bool) -> Self {
        self.config.record_provenance = on;
        self
    }

    /// Telemetry collection level (see [`crate::telemetry`]); default
    /// [`TelemetryLevel::Off`], overridable per process via the
    /// `NUCHASE_TELEMETRY` environment variable.
    pub fn telemetry(mut self, level: TelemetryLevel) -> Self {
        self.config.telemetry = level;
        self
    }

    /// Builds the engine. For `threads ≥ 2` this spawns the persistent
    /// worker pool (`threads − 1` parked threads), which lives until the
    /// engine is dropped.
    pub fn build(self) -> Engine {
        Engine::from_config(&self.config)
    }
}

/// Cap on the engine's recycled-buffer stack: enough for a handful of
/// concurrently open sessions without hoarding arenas forever.
const SPARE_PARTS_MAX: usize = 8;

/// An engine's recycled per-chase buffers: the per-rule fired sets and
/// the [`RoundDriver`] (trigger batch, apply buffers, task list) of
/// finished chases. Blocking sessions and submitted jobs check buffers
/// out of one stack and hand them back to it on completion, which is
/// what spares a warm engine's per-chase setup its arena allocations.
#[derive(Debug, Default)]
pub(crate) struct SpareParts(Mutex<Vec<(Vec<TermTupleSet>, RoundDriver)>>);

impl SpareParts {
    /// Checks out a recycled (fired sets, driver) pair, or builds a
    /// fresh one, with one fired set per rule of `program`. The caller
    /// restarts the driver.
    pub(crate) fn take(
        &self,
        config: &ChaseConfig,
        program: &PreparedProgram,
    ) -> (Vec<TermTupleSet>, RoundDriver) {
        // Poison-tolerant lock: a panicked run elsewhere must not wedge
        // every future chase of the engine (the stack holds only
        // cleared buffers, and failed runs never store theirs).
        let parts = self.0.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let (mut fired, driver) =
            parts.unwrap_or_else(|| (Vec::new(), RoundDriver::new(config, program.tgds())));
        fired.resize_with(program.rule_count(), TermTupleSet::new);
        (fired, driver)
    }

    /// Returns a finished chase's buffers to the stack, cleared.
    /// Callers must not offer buffers from a failed run: a panic may
    /// have left them mid-write, and a recycled half-written buffer
    /// would corrupt a *different* chase.
    pub(crate) fn store(&self, mut fired: Vec<TermTupleSet>, mut driver: RoundDriver) {
        let mut spare = self.0.lock().unwrap_or_else(|e| e.into_inner());
        if spare.len() < SPARE_PARTS_MAX {
            fired.iter_mut().for_each(TermTupleSet::clear);
            // The worker scratch is sized by the widest round the chase
            // ran: a 200-edge transitive closure leaves about 4 MB of
            // batch columns and dedup arena in it. Kept, that high-water
            // mark stays resident for every later chase; re-grown, it
            // costs a chase a handful of allocations.
            driver.ws = WorkerScratch::new();
            spare.push((fired, driver));
        }
    }
}

/// The chase execution engine: a [`ChaseConfig`] plus everything worth
/// keeping *between* chases — a persistent shared scheduler
/// ([`crate::sched`]: threads parked, not respawned, between runs;
/// concurrent sessions multiplexed instead of serialized) and recycled
/// session buffers.
///
/// One engine serves any number of [`PreparedProgram`]s and sessions;
/// see the [module docs](self) for the compile-once/chase-many story and
/// runnable examples. For non-blocking whole-chase jobs, see
/// [`Engine::submit`].
#[derive(Debug)]
pub struct Engine {
    config: ChaseConfig,
    /// The shared scheduler: eagerly started for `threads ≥ 2` engines,
    /// lazily on first [`Engine::submit`] otherwise (blocking runs on a
    /// `threads ≤ 1` engine never spawn a thread).
    sched: std::sync::OnceLock<Scheduler>,
    /// Recycled buffers, shared with the scheduler's job workers.
    spare: Arc<SpareParts>,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with exactly this configuration (the builder's
    /// terminal step; also what [`crate::chase::chase`] builds per
    /// call).
    pub fn from_config(config: &ChaseConfig) -> Engine {
        let engine = Engine {
            config: *config,
            sched: std::sync::OnceLock::new(),
            spare: Arc::default(),
        };
        if config.threads >= 2 {
            let _ = engine.sched.set(Scheduler::new(
                config.threads - 1,
                config.threads,
                Arc::clone(&engine.spare),
            ));
        }
        engine
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ChaseConfig {
        &self.config
    }

    /// Opens a session over a copy of `database`. The session owns its
    /// instance and all chase state; drive it with
    /// [`ChaseSession::run`] / [`ChaseSession::resume`].
    pub fn session<'e, 'p>(
        &'e self,
        program: &'p PreparedProgram,
        database: &Instance,
    ) -> ChaseSession<'e, 'p> {
        self.session_owned(program, database.clone())
    }

    /// Opens a session that takes ownership of `database` (no copy).
    pub fn session_owned<'e, 'p>(
        &'e self,
        program: &'p PreparedProgram,
        database: Instance,
    ) -> ChaseSession<'e, 'p> {
        let (fired, mut driver) = self.spare.take(&self.config, program);
        driver.restart(&self.config, program.single_atom_bodies(), Instant::now());
        let base_atoms = database.len();
        ChaseSession {
            engine: self,
            program,
            config: self.config,
            core: SessionCore {
                instance: database,
                fired,
                apply: ApplyState::new(&self.config, base_atoms),
                delta_start: 0,
                base_atoms,
            },
            driver,
            marks: Vec::new(),
            mid_round_stop: false,
            poisoned: false,
            lifetime: ChaseStats::default(),
            last_run: ChaseStats::default(),
            runs: 0,
            outcome: None,
            deadline: None,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// One-shot convenience: open a session, run it to the configured
    /// budgets, and consume it into a [`ChaseResult`].
    pub fn chase(&self, program: &PreparedProgram, database: &Instance) -> ChaseResult {
        self.chase_with_mark(program, database, Instant::now())
    }

    /// [`Engine::chase`] with a caller-supplied start instant, so
    /// [`crate::chase::chase`] accounts its own setup (clone, compile)
    /// into the run's wall and first enumerate span.
    pub(crate) fn chase_with_mark(
        &self,
        program: &PreparedProgram,
        database: &Instance,
        mark: Instant,
    ) -> ChaseResult {
        let mut session = self.session(program, database);
        session.run_inner(None, mark);
        session.finish()
    }

    /// The shared scheduler, if one has been started (always, for
    /// `threads ≥ 2` engines).
    pub(crate) fn sched(&self) -> Option<&Scheduler> {
        self.sched.get()
    }

    /// The shared scheduler, starting it on first use. A `threads ≤ 1`
    /// engine gets a single scheduler thread — enough to make
    /// [`Engine::submit`] non-blocking — but only one execution lane, so
    /// that worker defers the job queue whenever a waiting caller is
    /// draining it ([`JobHandle::wait`]'s caller-runs loop).
    fn sched_lazy(&self) -> &Scheduler {
        self.sched.get_or_init(|| {
            Scheduler::new(
                self.config.threads.saturating_sub(1).max(1),
                self.config.threads.max(1),
                Arc::clone(&self.spare),
            )
        })
    }

    /// Queues a whole chase of `database` as a non-blocking job and
    /// returns immediately with a [`JobHandle`].
    ///
    /// The scheduler slices queued jobs in bounded quanta
    /// (`NUCHASE_SCHED_QUANTUM_US`, default 500 µs of rounds per slice)
    /// and rotates through them fairly, so many tenants share the
    /// engine without one slow chase blocking the rest. Each job's
    /// result is byte-identical to [`Engine::chase`] on the same
    /// database — same instance, nulls, outcome — with two scheduling
    /// gauges added to its statistics
    /// ([`ChaseStats::sched_wait_secs`],
    /// [`ChaseStats::sched_occupancy`]).
    ///
    /// Panic isolation carries over: a job that panics resolves its
    /// handle with [`ChaseOutcome::Failed`] and poisons only itself —
    /// the scheduler and every other queued or in-flight job are
    /// unaffected.
    pub fn submit(&self, program: &PreparedProgram, database: &Instance) -> JobHandle {
        self.submit_owned(program, database.clone())
    }

    /// [`Engine::submit`], taking ownership of `database` (no copy —
    /// the chase consumes this allocation directly).
    pub fn submit_owned(&self, program: &PreparedProgram, database: Instance) -> JobHandle {
        self.sched_lazy()
            .submit(program, &self.config, Arc::new(database))
    }

    /// [`Engine::submit`] over a shared input: enqueueing costs a
    /// refcount, not a deep copy. The per-chase working copy is made
    /// when the job first runs, from a base that stays cache-warm
    /// across a burst — the shape a server wants for fanning many
    /// concurrent chases over resident tenant databases. `database` is
    /// never mutated through this handle.
    pub fn submit_shared(&self, program: &PreparedProgram, database: &Arc<Instance>) -> JobHandle {
        self.sched_lazy()
            .submit(program, &self.config, Arc::clone(database))
    }
}

/// Soft, per-run limits checked **between rounds** — unlike the hard
/// [`ChaseBudget`] (which stops mid-commit the instant a limit trips),
/// these pause the session at a round boundary, which is what makes a
/// paused-and-resumed session byte-identical to an uninterrupted run.
/// All limits are optional and combine (first to trip wins).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunLimits {
    /// Pause before the next round once the instance holds at least this
    /// many atoms (the run may overshoot by up to one round's output).
    pub pause_at_atoms: Option<usize>,
    /// Pause after this many rounds *of this run*.
    pub max_rounds: Option<usize>,
    /// Pause at the first round boundary past this instant.
    pub deadline: Option<Instant>,
}

impl RunLimits {
    /// Pause once the instance reaches `n` atoms.
    pub fn atoms(n: usize) -> Self {
        RunLimits {
            pause_at_atoms: Some(n),
            ..Default::default()
        }
    }

    /// Pause after `n` rounds of this run.
    pub fn rounds(n: usize) -> Self {
        RunLimits {
            max_rounds: Some(n),
            ..Default::default()
        }
    }

    /// Pause at the first round boundary past `deadline`.
    pub fn until(deadline: Instant) -> Self {
        RunLimits {
            deadline: Some(deadline),
            ..Default::default()
        }
    }
}

/// The chase state a session owns between runs: the live instance, the
/// authoritative per-rule fired sets, the apply-side state (null store,
/// forest, provenance, commit scratch), and the semi-naive frontier.
#[derive(Debug)]
pub(crate) struct SessionCore {
    /// The live instance (database + everything derived so far).
    pub(crate) instance: Instance,
    /// Authoritative per-rule fired sets.
    pub(crate) fired: Vec<TermTupleSet>,
    /// Null store, forest, provenance, and commit scratch.
    pub(crate) apply: ApplyState,
    /// First atom index of the pending delta.
    pub(crate) delta_start: AtomIdx,
    /// Database atoms (initial plus added) — the baseline for
    /// `atoms_created`.
    pub(crate) base_atoms: usize,
}

/// Per-run control state threaded through the round loop: lifetime
/// round accounting, the soft [`RunLimits`], cancellation/deadline, and
/// the round-start fired watermarks for mid-round stop recovery.
pub(crate) struct RunCtl<'a> {
    /// Lifetime rounds executed before this run (the hard
    /// [`ChaseBudget::max_rounds`] counts across resumes).
    pub(crate) rounds_base: usize,
    /// Soft cap on this run's rounds.
    pub(crate) run_rounds_cap: Option<usize>,
    /// Soft pause threshold on the instance size.
    pub(crate) pause_at_atoms: Option<usize>,
    /// Pause at the first round boundary past this instant.
    pub(crate) deadline: Option<Instant>,
    /// Cooperative cancellation flag, polled between rounds.
    pub(crate) cancel: &'a AtomicBool,
    /// Instance heap ceiling ([`ChaseBudget::max_heap_bytes`] or
    /// `NUCHASE_MEMORY_LIMIT_BYTES`): reaching it at a round boundary
    /// returns the resumable [`ChaseOutcome::MemoryLimit`].
    pub(crate) max_heap_bytes: Option<usize>,
    /// Round-start per-rule fired watermarks.
    pub(crate) marks: &'a mut Vec<u32>,
}

impl<'a> RunCtl<'a> {
    /// Control state with no soft limits: the hard round budget counts
    /// from `rounds_base`, and the heap ceiling is the effective one —
    /// an explicit [`ChaseBudget::max_heap_bytes`] wins, else
    /// `NUCHASE_MEMORY_LIMIT_BYTES`.
    pub(crate) fn new(
        config: &ChaseConfig,
        rounds_base: usize,
        cancel: &'a AtomicBool,
        marks: &'a mut Vec<u32>,
    ) -> Self {
        RunCtl {
            rounds_base,
            run_rounds_cap: None,
            pause_at_atoms: None,
            deadline: None,
            cancel,
            max_heap_bytes: config
                .budget
                .max_heap_bytes
                .or_else(|| crate::config::env_usize("NUCHASE_MEMORY_LIMIT_BYTES")),
            marks,
        }
    }

    /// The round-boundary checkpoint: hard round budget, soft limits,
    /// cancellation, deadline — in that fixed order — then the
    /// round-start fired watermarks. Returns the outcome ending the run,
    /// or `None` to proceed into the round.
    pub(crate) fn checkpoint(
        &mut self,
        config: &ChaseConfig,
        rounds_this_run: usize,
        instance: &Instance,
        fired: &[TermTupleSet],
    ) -> Option<ChaseOutcome> {
        if self.rounds_base + rounds_this_run >= config.budget.max_rounds {
            return Some(ChaseOutcome::RoundLimit);
        }
        if let Some(limit) = self.max_heap_bytes {
            // `heap_bytes` walks the arena chunk lists — cheap, and paid
            // only when a ceiling is actually configured.
            if instance.heap_bytes() >= limit {
                return Some(ChaseOutcome::MemoryLimit);
            }
        }
        if let Some(cap) = self.run_rounds_cap {
            if rounds_this_run >= cap {
                return Some(ChaseOutcome::Paused);
            }
        }
        if let Some(pause) = self.pause_at_atoms {
            if instance.len() >= pause {
                return Some(ChaseOutcome::Paused);
            }
        }
        if self.cancel.load(Ordering::Relaxed) {
            return Some(ChaseOutcome::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(ChaseOutcome::Deadline);
            }
        }
        self.marks.clear();
        self.marks.extend(fired.iter().map(|set| set.len() as u32));
        None
    }
}

/// Who drains a run's rounds.
pub(crate) enum Lanes<'s> {
    /// The calling thread alone.
    Caller,
    /// The calling thread, joined by this scheduler's helpers in wide
    /// rounds — a `threads ≥ 2` blocking run.
    Shared(&'s Scheduler),
    /// A submitted job's slice on a scheduler lane: the lane's thread
    /// alone, with the `sched_job` fault site guarding entry.
    JobSlice,
}

impl SessionCore {
    /// One run of the round loop, with the bookkeeping every run shares
    /// — a [`ChaseSession`] run and a scheduler job slice alike: re-arm
    /// the [`RoundDriver`] and the telemetry ring, arm the fault plan around the
    /// run, run [`run_rounds`] under `catch_unwind`, and book the
    /// end-of-run gauges into `stats`.
    ///
    /// Panic isolation, layer 1 of 3: the whole round loop runs under
    /// `catch_unwind`, so a panicking round — injected or genuine —
    /// fails only this run. (Layer 2 is the [`Helpers`]' lend, which
    /// hands the round state back after a shared phase even on unwind;
    /// layer 3 is each drainer catching its unit bodies, so scheduler
    /// threads survive and re-park.) The mutable borrows are
    /// unwind-safe here: on a failure the session either rolls back to
    /// the last round boundary (injected faults — the fired-set
    /// watermark machinery makes the replay idempotent) or poisons
    /// itself and refuses further runs (genuine panics); a failed job
    /// is final.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &mut self,
        program: &PreparedProgram,
        config: &ChaseConfig,
        driver: &mut RoundDriver,
        lanes: Lanes<'_>,
        mut ctl: RunCtl<'_>,
        stats: &mut ChaseStats,
        mark: Instant,
    ) -> ChaseOutcome {
        let len_before = self.instance.len();
        let nulls_before = self.apply.nulls.len();
        driver.restart(config, program.single_atom_bodies(), mark);
        self.apply.begin_run_telemetry(ctl.rounds_base);
        // Deterministic fault injection: arm the resolved plan around
        // this run only (the guard disarms on every exit path, unwind
        // included). Empty plans — the steady state — arm nothing.
        let fault_plan = crate::fault::resolved_plan(config);
        let _fault_guard = crate::fault::ArmGuard::arm(&fault_plan);
        let fault_counters_before = nuchase_model::fault::counters();
        let mut helpers = match lanes {
            Lanes::Shared(sched) => Some(Helpers::new(sched, program, config)),
            Lanes::Caller | Lanes::JobSlice => None,
        };
        let job_slice = matches!(lanes, Lanes::JobSlice);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if job_slice {
                // Scheduler-boundary fault site: fires at the start of
                // every job slice (never crossed by blocking sessions).
                nuchase_model::fault::check(FaultSite::SchedJob);
            }
            run_rounds(
                program.tgds(),
                config,
                self,
                driver,
                &mut ctl,
                stats,
                helpers.as_mut(),
            )
        }));
        let outcome = match caught {
            Ok(outcome) => outcome,
            Err(payload) => ChaseOutcome::Failed(ChaseError::from_panic(payload.as_ref())),
        };
        driver.finish_run(stats);
        // Taking a shared run off the board has no serial analogue; book
        // it in its own bucket so the phase timers keep covering the wall
        // without inflating commit.
        if helpers.is_some_and(Helpers::retire) {
            driver.lap_pool(stats);
        }
        // The final delta was fully enumerated and produced nothing:
        // consume it, so a later resume (after `add_atoms`) chases
        // exactly the added atoms.
        if outcome == ChaseOutcome::Terminated {
            self.delta_start = self.instance.len() as AtomIdx;
        }
        stats.atoms_created = self.instance.len() - len_before;
        stats.nulls_created = self.apply.nulls.len() - nulls_before;
        // Memory gauges: the instance and null store are append-only, so
        // end-of-run footprints *are* the run peaks — one walk over the
        // arena capacities here, zero hot-path cost.
        stats.peak_instance_bytes = self.instance.heap_bytes();
        stats.instance_table_load = self.instance.table_load();
        stats.index_spill_count = self.instance.spill_count();
        stats.peak_null_bytes = self.apply.nulls.heap_bytes();
        stats.wall_secs = mark.elapsed().as_secs_f64();
        // Fault accounting: attribute this run's injected hits, spill
        // fallbacks, and absorbed retries (process-global monotonic
        // counters, snapshotted around the run).
        let fault_counters = nuchase_model::fault::counters();
        stats.faults_injected =
            (fault_counters.faults_injected - fault_counters_before.faults_injected) as usize;
        stats.spill_fallbacks =
            (fault_counters.spill_fallbacks - fault_counters_before.spill_fallbacks) as usize;
        stats.retries = (fault_counters.retries - fault_counters_before.retries) as usize;
        outcome
    }
}

/// One in-progress (or finished) chase: owns the instance, nulls, fired
/// sets, and statistics; runs to hard budgets or soft [`RunLimits`];
/// accepts new database atoms between runs; and consumes into a
/// [`ChaseResult`]. See the [module docs](self) for the exact resume
/// guarantees per variant.
#[derive(Debug)]
pub struct ChaseSession<'e, 'p> {
    engine: &'e Engine,
    program: &'p PreparedProgram,
    config: ChaseConfig,
    core: SessionCore,
    driver: RoundDriver,
    /// Round-start per-rule fired watermarks of the most recent round.
    marks: Vec<u32>,
    /// A hard budget stopped the last run mid-round: the next run must
    /// roll the fired sets back to `marks` and replay the round.
    mid_round_stop: bool,
    /// A non-injected panic escaped a run: the chase state may be
    /// arbitrarily inconsistent, so every further run refuses with
    /// [`ChaseError::Poisoned`] — but `stats()`/`telemetry()` stay
    /// readable, and the engine (pool included) is unaffected.
    poisoned: bool,
    lifetime: ChaseStats,
    last_run: ChaseStats,
    runs: usize,
    outcome: Option<ChaseOutcome>,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
}

impl ChaseSession<'_, '_> {
    /// Runs the chase to termination or the session's hard
    /// [`ChaseBudget`], honoring the session deadline and cancellation
    /// flag between rounds. Re-running a terminated session with no new
    /// atoms is a no-op returning [`ChaseOutcome::Terminated`].
    pub fn run(&mut self) -> ChaseOutcome {
        self.run_inner(None, Instant::now())
    }

    /// [`ChaseSession::run`] with soft per-run limits — pauses at a
    /// round boundary, from which [`ChaseSession::resume`] continues
    /// byte-identically.
    pub fn run_limited(&mut self, limits: &RunLimits) -> ChaseOutcome {
        self.run_inner(Some(limits), Instant::now())
    }

    /// Continues a paused or extended session — an alias of
    /// [`ChaseSession::run`], named for the incremental flow
    /// (`add_atoms` → `resume`).
    pub fn resume(&mut self) -> ChaseOutcome {
        self.run()
    }

    fn run_inner(&mut self, limits: Option<&RunLimits>, mark: Instant) -> ChaseOutcome {
        // A poisoned session refuses to run: a non-injected panic left
        // its chase state unverifiable. The refusal is itself a clean,
        // typed outcome (and the session's accessors keep working).
        if self.poisoned {
            let outcome = ChaseOutcome::Failed(ChaseError::Poisoned);
            self.outcome = Some(outcome.clone());
            return outcome;
        }
        // A terminated session with an empty pending delta cannot
        // progress; running a round anyway would add one empty round an
        // uninterrupted chase never executes.
        if self.outcome == Some(ChaseOutcome::Terminated)
            && self.core.delta_start as usize == self.core.instance.len()
        {
            return ChaseOutcome::Terminated;
        }
        // Mid-round hard-stop recovery: roll the fired sets back to the
        // interrupted round's start so its unfired triggers re-enumerate
        // (see the module docs — the replay is idempotent for the
        // interned-null variants).
        if self.mid_round_stop {
            self.mid_round_stop = false;
            for (set, &watermark) in self.core.fired.iter_mut().zip(&self.marks) {
                set.truncate(watermark as usize);
            }
        }
        let ctl = RunCtl {
            run_rounds_cap: limits.and_then(|l| l.max_rounds),
            pause_at_atoms: limits.and_then(|l| l.pause_at_atoms),
            // The session deadline and a per-run deadline combine:
            // whichever trips first wins.
            deadline: match (limits.and_then(|l| l.deadline), self.deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            ..RunCtl::new(
                &self.config,
                self.lifetime.rounds,
                &self.cancel,
                &mut self.marks,
            )
        };
        let lanes = match self.engine.sched() {
            Some(sched) if self.config.threads >= 2 => Lanes::Shared(sched),
            _ => Lanes::Caller,
        };
        let mut stats = ChaseStats::default();
        let outcome = self.core.run(
            self.program,
            &self.config,
            &mut self.driver,
            lanes,
            ctl,
            &mut stats,
            mark,
        );
        match &outcome {
            // Hard budgets stop mid-round; round-boundary outcomes
            // (pause, cancellation, deadline, round budget, memory
            // ceiling) leave clean state behind.
            ChaseOutcome::AtomLimit | ChaseOutcome::DepthLimit => {
                self.mid_round_stop = true;
            }
            // An injected fault fired mid-round: schedule the same
            // rollback-and-replay a hard budget stop uses, so the next
            // run (with the plan disarmed) continues byte-identically.
            // Sites fire *before* their mutation, and the interned-null
            // variants replay idempotently, so the rollback restores
            // exactly the last round boundary.
            ChaseOutcome::Failed(err) if err.is_injected() => {
                self.mid_round_stop = true;
            }
            // A genuine panic: the state cannot be trusted; poison the
            // session (accessors keep working, runs refuse).
            ChaseOutcome::Failed(_) => {
                self.poisoned = true;
            }
            _ => {}
        }
        self.runs += 1;
        self.outcome = Some(outcome.clone());
        self.lifetime.absorb(&stats);
        self.last_run = stats;
        outcome
    }

    /// Appends new database atoms to the live instance (duplicates of
    /// atoms already present — database or derived — are ignored).
    /// Returns the number actually added. Follow with
    /// [`ChaseSession::resume`] to chase the delta.
    pub fn add_atoms<I>(&mut self, atoms: I) -> usize
    where
        I: IntoIterator<Item = Atom>,
    {
        let mut added = 0usize;
        for atom in atoms {
            if let Some(idx) = self.core.instance.insert(atom) {
                added += 1;
                if let Some(forest) = self.core.apply.forest.as_mut() {
                    forest.push_root(idx);
                }
                if let Some(prov) = self.core.apply.provenance.as_mut() {
                    prov.push(idx, None);
                }
            }
        }
        if added > 0 {
            self.core.base_atoms += added;
            // The session is in progress again; the stale outcome would
            // misreport `terminated()`.
            self.outcome = None;
        }
        added
    }

    /// Replaces the session's hard budgets (e.g. to raise the atom cap
    /// before resuming a budget-stopped run, or the heap ceiling after a
    /// [`ChaseOutcome::MemoryLimit`]).
    pub fn set_budget(&mut self, budget: ChaseBudget) {
        self.config.budget = budget;
    }

    /// Replaces the session's deterministic fault-injection plan (e.g.
    /// [`FaultPlan::none`] to disarm before resuming a run an injected
    /// fault failed — the resume then completes byte-identically to a
    /// fault-free run).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.config.fault_plan = plan;
    }

    /// Has a non-injected panic poisoned this session? A poisoned
    /// session refuses to run ([`ChaseError::Poisoned`]) but keeps its
    /// accessors — `stats()`, `telemetry()`, `instance()` — readable.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Sets (or clears) the session deadline, checked between rounds on
    /// every run.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// A handle other threads can use to cancel the session: store
    /// `true` and the run stops at the next round boundary with
    /// [`ChaseOutcome::Cancelled`]. Clear it to make the session
    /// resumable again.
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.cancel)
    }

    /// The live instance (database + derived atoms so far).
    pub fn instance(&self) -> &Instance {
        &self.core.instance
    }

    /// The null store.
    pub fn nulls(&self) -> &NullStore {
        &self.core.apply.nulls
    }

    /// The outcome of the most recent run; `None` before the first run
    /// or after [`ChaseSession::add_atoms`] extended the database.
    pub fn outcome(&self) -> Option<ChaseOutcome> {
        self.outcome.clone()
    }

    /// Did the chase terminate (no active trigger remains and no atoms
    /// were added since)?
    pub fn terminated(&self) -> bool {
        self.outcome == Some(ChaseOutcome::Terminated)
    }

    /// Statistics of the most recent [`ChaseSession::run`] only.
    pub fn last_run_stats(&self) -> &ChaseStats {
        &self.last_run
    }

    /// Session-cumulative statistics: every counter and phase timer
    /// summed over all runs, so a resumed session reports honest
    /// lifetime throughput instead of resetting per call.
    pub fn stats(&self) -> &ChaseStats {
        &self.lifetime
    }

    /// A point-in-time snapshot of the session's telemetry (per-rule
    /// attribution, round ring, memory gauges); `None` when the resolved
    /// [`TelemetryLevel`] is [`TelemetryLevel::Off`]. The snapshot's
    /// embedded statistics are the session-cumulative totals.
    pub fn telemetry(&self) -> Option<TelemetrySnapshot> {
        self.core.apply.telemetry_snapshot(&self.lifetime)
    }

    /// Number of completed [`ChaseSession::run`] / resume calls.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Atoms derived beyond the database (initial plus added atoms).
    pub fn atoms_created(&self) -> usize {
        self.core.instance.len() - self.core.base_atoms
    }

    /// The prepared program this session chases.
    pub fn program(&self) -> &PreparedProgram {
        self.program
    }

    /// Consumes the session into the classic [`ChaseResult`], returning
    /// the reusable buffers to the engine. The result's statistics are
    /// the session-cumulative totals; its outcome is the last run's
    /// ([`ChaseOutcome::Paused`] for a session never run).
    pub fn finish(self) -> ChaseResult {
        let ChaseSession {
            engine,
            core,
            driver,
            lifetime,
            outcome,
            ..
        } = self;
        let mut stats = lifetime;
        stats.atoms_created = core.instance.len() - core.base_atoms;
        stats.nulls_created = core.apply.nulls.len();
        let telemetry = core.apply.telemetry_snapshot(&stats).map(Box::new);
        // A failed run's buffers never re-enter the recycle stack: a
        // panic may have left the fired sets or driver scratch mid-write,
        // and a recycled half-written buffer would corrupt a *different*
        // session. Dropping them here is the isolation boundary.
        if !matches!(outcome, Some(ChaseOutcome::Failed(_))) {
            engine.spare.store(core.fired, driver);
        }
        ChaseResult {
            instance: core.instance,
            nulls: core.apply.nulls,
            outcome: outcome.unwrap_or(ChaseOutcome::Paused),
            stats,
            forest: core.apply.forest,
            provenance: core.apply.provenance,
            telemetry,
        }
    }
}

/// The round loop — the one loop every chase runs, blocking or sliced,
/// at every thread count. Each round: the round-boundary
/// [`RunCtl::checkpoint`]; the chain micro-round when the program and
/// the round allow it; otherwise the canonical `(rule, pivot, window)`
/// task list, drained with eager dedup on fused rounds, through the
/// batch or per-trigger enumerators otherwise; then the apply step on
/// the path [`RoundDriver::begin_round`] chose (fused pass, or merge →
/// plan → resolve → commit).
///
/// `helpers` only decides who drains a wide round's units: when given
/// (a `threads ≥ 2` blocking run), a non-fused round that reaches
/// [`Helpers::share_enumerate`]'s floors shares its task list with the
/// scheduler's helpers, and a wide resolve stage its ranges
/// ([`RoundDriver::apply`]). Every unit computes the same output
/// whoever drains it, and the outputs merge in canonical order, so
/// results and work counters are identical at every thread count.
pub(crate) fn run_rounds(
    tgds: &TgdSet,
    config: &ChaseConfig,
    core: &mut SessionCore,
    driver: &mut RoundDriver,
    ctl: &mut RunCtl<'_>,
    stats: &mut ChaseStats,
    mut helpers: Option<&mut Helpers<'_>>,
) -> ChaseOutcome {
    loop {
        if let Some(stop) = ctl.checkpoint(config, stats.rounds, &core.instance, &core.fired) {
            return stop;
        }
        stats.rounds += 1;

        let len = core.instance.len() as AtomIdx;
        let delta = len - core.delta_start;
        let eager = driver.begin_round(delta, stats);

        // Chain micro-round: every rule body is a single atom and the
        // round is fused — enumerate, dedup, and fire in one pass over
        // the delta window, no task list, no trigger batch.
        if driver.chain_round() {
            let (considered, any, stop) = fused_chain_round(
                tgds,
                config,
                &mut core.instance,
                &mut core.fired,
                &mut core.apply,
                &mut driver.ws,
                (core.delta_start, len),
                stats,
            );
            stats.triggers_considered += considered;
            driver.lap_chain_round(stats);
            core.apply.record_round(
                stats.rounds,
                RoundPath::Chain,
                delta as usize,
                core.instance.len(),
                stats,
            );
            if let Some(stop) = stop {
                return stop;
            }
            if !any || core.instance.len() == len as usize {
                return ChaseOutcome::Terminated;
            }
            core.delta_start = len;
            continue;
        }

        // Phase 1: enumerate new triggers against the frozen instance.
        driver.prepare_tasks(tgds, core.delta_start, len);
        driver.batch.clear();
        match helpers.as_deref_mut() {
            Some(h) if !eager && Helpers::share_enumerate(delta, driver.tasks.len()) => {
                if let Err(err) = h.enumerate(core, driver, stats) {
                    return ChaseOutcome::Failed(err);
                }
            }
            _ => enumerate_inline(tgds, config, core, driver, eager, stats),
        }
        driver.lap_enumerate(stats);
        if driver.no_triggers() {
            core.apply.record_round(
                stats.rounds,
                driver.round_path(),
                delta as usize,
                core.instance.len(),
                stats,
            );
            return ChaseOutcome::Terminated;
        }

        // Phase 2: apply on the path `begin_round` chose.
        let stop = driver.apply(tgds, config, core, stats, helpers.as_deref_mut());
        core.apply.record_round(
            stats.rounds,
            driver.round_path(),
            delta as usize,
            core.instance.len(),
            stats,
        );
        if let Some(stop) = stop {
            return stop;
        }
        if core.instance.len() == len as usize {
            return ChaseOutcome::Terminated;
        }
        core.delta_start = len;
    }
}

/// Drains the round's task list on the calling thread, in canonical
/// order, into [`RoundDriver::batch`]: eager dedup on fused rounds, the
/// batch or per-trigger enumerators otherwise.
fn enumerate_inline(
    tgds: &TgdSet,
    config: &ChaseConfig,
    core: &mut SessionCore,
    driver: &mut RoundDriver,
    eager: bool,
    stats: &mut ChaseStats,
) {
    let ctx = RoundCtx {
        tgds,
        variant: config.variant,
        delta_start: core.delta_start,
    };
    let batch_round = driver.batch_round();
    let mut emit = 0.0f64;
    let timed = core.apply.sample_rule_timing();
    for &task in &driver.tasks {
        let rule_mark = timed.then(Instant::now);
        let fired = &mut core.fired[task.rule.index()];
        let considered = if eager {
            enumerate_task_eager(
                &core.instance,
                ctx,
                task,
                fired,
                &mut driver.ws,
                &mut driver.batch,
            )
        } else if batch_round {
            enumerate_task_batch(
                &core.instance,
                ctx,
                task,
                fired,
                &mut driver.ws,
                &mut driver.batch,
                &mut emit,
            )
        } else {
            enumerate_task(
                &core.instance,
                ctx,
                task,
                fired,
                &mut driver.ws,
                &mut driver.batch,
            )
        };
        stats.triggers_considered += considered;
        core.apply.note_considered(task.rule, considered);
        if let Some(mark) = rule_mark {
            core.apply
                .note_rule_secs(task.rule, mark.elapsed().as_secs_f64());
        }
    }
    driver.note_emit(emit);
    stats.note_probe_flow(driver.ws.take_probes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::{chase, ChaseVariant};
    use nuchase_model::parse_program;

    #[test]
    fn prepared_program_reports_metadata() {
        let p = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        assert_eq!(program.rule_count(), 1);
        assert!(program.single_atom_bodies());
        assert_eq!(program.uniform_verdict(), None);
        let program = program.with_uniform_verdict(true);
        assert_eq!(program.uniform_verdict(), Some(true));
        assert!(program.summary().contains("1 rules"));
        assert!(program.summary().contains("uniformly terminating"));
    }

    #[test]
    fn engine_chase_matches_free_function() {
        let p =
            parse_program("e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X, W).")
                .unwrap();
        let cfg = ChaseConfig {
            record_provenance: true,
            build_forest: true,
            ..Default::default()
        };
        let reference = chase(&p.database, &p.tgds, &cfg);
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::from_config(&cfg);
        for _ in 0..3 {
            // Repeat: recycled buffers must not change anything.
            let r = engine.chase(&program, &p.database);
            assert_eq!(r.outcome, reference.outcome);
            assert!(r.instance.indexed_eq(&reference.instance));
            assert_eq!(r.stats.rounds, reference.stats.rounds);
            assert_eq!(r.nulls.len(), reference.nulls.len());
        }
    }

    /// A submitted job hands its buffers back to the engine's one spare
    /// stack under the sessions' policy: a wide chase's worker scratch
    /// is dropped, not kept at its high-water mark.
    #[test]
    fn jobs_recycle_parts_without_worker_scratch() {
        let mut text: String = (0..200)
            .map(|i| format!("e(c{i}, c{}).\n", i + 1))
            .collect();
        text.push_str("e(X, Y), e(Y, Z) -> e(X, Z).");
        let p = parse_program(&text).unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::builder().build();
        let r = engine.submit(&program, &p.database).wait();
        assert_eq!(r.instance.len(), 200 * 201 / 2);
        let spare = engine.spare.0.lock().unwrap();
        assert_eq!(spare.len(), 1, "the job's buffers were not recycled");
        for (_, driver) in spare.iter() {
            assert_eq!(driver.ws.dedup.heap_bytes(), 0, "dedup scratch kept");
            assert_eq!(driver.ws.key_buf.capacity(), 0, "key scratch kept");
        }
    }

    #[test]
    fn session_accumulates_stats_across_runs() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::builder().build();
        let mut session = engine.session(&program, &p.database);
        assert_eq!(
            session.run_limited(&RunLimits::atoms(50)),
            ChaseOutcome::Paused
        );
        let first_rounds = session.last_run_stats().rounds;
        assert!(first_rounds > 0);
        assert_eq!(
            session.run_limited(&RunLimits::atoms(120)),
            ChaseOutcome::Paused
        );
        assert_eq!(session.runs(), 2);
        assert_eq!(
            session.stats().rounds,
            first_rounds + session.last_run_stats().rounds
        );
        assert!(session.stats().wall_secs >= session.last_run_stats().wall_secs);
        assert_eq!(session.stats().atoms_created, session.atoms_created());
        // Hard budgets stay lifetime-scoped: rounds budget counts across
        // resumes.
        let mut capped = engine.session(&program, &p.database);
        capped.set_budget(ChaseBudget {
            max_rounds: 10,
            ..ChaseBudget::atoms(1_000_000)
        });
        assert_eq!(
            capped.run_limited(&RunLimits::rounds(4)),
            ChaseOutcome::Paused
        );
        assert_eq!(capped.resume(), ChaseOutcome::RoundLimit);
        assert_eq!(capped.stats().rounds, 10);
    }

    #[test]
    fn cancellation_stops_between_rounds() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::builder().build();
        let mut session = engine.session(&program, &p.database);
        session.cancel_handle().store(true, Ordering::Relaxed);
        assert_eq!(session.run(), ChaseOutcome::Cancelled);
        assert_eq!(session.instance().len(), 1, "cancelled before round 1");
        // Clearing the flag makes the session resumable.
        session.cancel_handle().store(false, Ordering::Relaxed);
        assert_eq!(
            session.run_limited(&RunLimits::rounds(5)),
            ChaseOutcome::Paused
        );
        assert!(session.instance().len() > 1);
    }

    #[test]
    fn deadline_stops_between_rounds() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::builder().build();
        let mut session = engine.session(&program, &p.database);
        session.set_deadline(Some(Instant::now()));
        assert_eq!(session.run(), ChaseOutcome::Deadline);
        // A later per-run deadline cannot loosen the earlier session
        // deadline: whichever trips first wins.
        assert_eq!(
            session.run_limited(&RunLimits::until(
                Instant::now() + std::time::Duration::from_secs(3600)
            )),
            ChaseOutcome::Deadline
        );
        session.set_deadline(None);
        assert_eq!(
            session.run_limited(&RunLimits::rounds(3)),
            ChaseOutcome::Paused
        );
    }

    #[test]
    fn resume_after_termination_is_a_no_op() {
        let p = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::builder().build();
        let mut session = engine.session(&program, &p.database);
        assert_eq!(session.run(), ChaseOutcome::Terminated);
        let rounds = session.stats().rounds;
        assert_eq!(session.resume(), ChaseOutcome::Terminated);
        assert_eq!(session.stats().rounds, rounds, "no extra rounds");
        assert_eq!(session.runs(), 1, "the no-op resume is not a run");
    }

    #[test]
    fn add_atoms_dedups_and_resumes() {
        let p = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::builder().build();
        let mut session = engine.session(&program, &p.database);
        session.run();
        assert!(session.terminated());
        let atoms: Vec<_> = session.instance().iter().map(|a| a.to_atom()).collect();
        // Re-adding existing atoms (database or derived) adds nothing.
        assert_eq!(session.add_atoms(atoms), 0);
        assert!(session.terminated(), "outcome untouched by a no-op add");
        // A genuinely new atom re-opens the session.
        let q = parse_program("r(a, b).\nr(x2, y2).").unwrap();
        assert_eq!(session.add_atoms(q.database.iter().map(|a| a.to_atom())), 1);
        assert_eq!(session.outcome(), None);
        assert_eq!(session.resume(), ChaseOutcome::Terminated);
        assert_eq!(session.atoms_created(), 2, "one s-atom per r-fact");
    }

    #[test]
    fn hard_budget_stop_recovers_on_resume() {
        // An atom-budget stop lands mid-round; raising the budget and
        // resuming must reach the same final set as an unbudgeted run.
        for threads in [0usize, 1, 2] {
            for variant in [ChaseVariant::SemiOblivious, ChaseVariant::Oblivious] {
                let p = parse_program("r(a, b).\nr(c, d).\nr(e, f).\nr(X, Y) -> s(X, Z), t(Z, Y).")
                    .unwrap();
                let cfg = ChaseConfig {
                    variant,
                    threads,
                    ..Default::default()
                };
                let reference = chase(&p.database, &p.tgds, &cfg);
                assert!(reference.terminated());
                let program = PreparedProgram::compile(p.tgds);
                let engine = Engine::from_config(&cfg);
                let mut session = engine.session(&program, &p.database);
                session.set_budget(ChaseBudget::atoms(5));
                assert_eq!(session.run(), ChaseOutcome::AtomLimit);
                session.set_budget(ChaseBudget::default());
                assert_eq!(session.resume(), ChaseOutcome::Terminated);
                assert!(
                    session.instance().set_eq(&reference.instance),
                    "threads {threads} {variant:?}"
                );
                assert_eq!(session.nulls().len(), reference.nulls.len());
            }
        }
    }

    #[test]
    fn finish_without_running_reports_paused() {
        let p = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = Engine::builder().build();
        let session = engine.session(&program, &p.database);
        let result = session.finish();
        assert_eq!(result.outcome, ChaseOutcome::Paused);
        assert_eq!(result.instance.len(), 1);
        assert_eq!(result.stats.rounds, 0);
    }

    #[test]
    fn sessions_share_an_engine_across_programs() {
        let engine = Engine::builder().build();
        let p1 = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let p2 = parse_program(
            "e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X).\np(X) -> q(X).",
        )
        .unwrap();
        let prog1 = PreparedProgram::compile(p1.tgds);
        let prog2 = PreparedProgram::compile(p2.tgds);
        // Interleave: recycled buffers must re-size per program.
        for _ in 0..3 {
            let r1 = engine.chase(&prog1, &p1.database);
            assert!(r1.terminated());
            assert_eq!(r1.instance.len(), 2);
            let r2 = engine.chase(&prog2, &p2.database);
            assert!(r2.terminated());
            // closure {ab, bc, ac} + {p(a), p(b)} + {q(a), q(b)}
            assert_eq!(r2.instance.len(), 3 + 2 + 2);
        }
    }
}
