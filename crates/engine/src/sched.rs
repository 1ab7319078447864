//! The shared multi-session scheduler: many in-flight chases, one
//! persistent worker pool, no gate.
//!
//! Every chase runs the one round loop ([`crate::session`]) on the
//! calling thread. `threads` decides only who drains a wide round's
//! units, and this module is where the other drainers come from:
//!
//! * **Helpers for wide rounds** (`Helpers`, `RunShared`) — at
//!   `threads ≥ 2`, a blocking run whose non-fused round reaches
//!   [`POOL_DELTA_MIN`] delta atoms or [`POOL_TASKS_MIN`] tasks lends
//!   its frozen round state to a `RunShared` published on the
//!   scheduler's board, and idle workers *help* drain the round's
//!   `(rule, pivot, window)` enumerate units; a resolve stage of at
//!   least [`RESOLVE_POOL_MIN`] planned triggers is shared out the same
//!   way. Helpers claim units off the run's atomic cursor. Many runs can
//!   be on the board at once; workers round-robin between them, so a
//!   wide round of one tenant does not own the pool. A run whose rounds
//!   never get that wide never touches the board.
//! * **Submitted jobs** (`Scheduler::submit`, surfaced as
//!   [`Engine::submit`](crate::Engine::submit)) — a non-blocking chase:
//!   the whole session state is boxed into a queue entry and workers
//!   drive it in **round-boundary quanta** (default 500µs, knob
//!   `NUCHASE_SCHED_QUANTUM_US`). A job that outlives its quantum goes
//!   to the back of the queue, so thousands of tenants make interleaved
//!   progress with fair admission — one deep chase cannot starve the
//!   fast ones behind it. A job slice runs the same round loop, without
//!   helpers. The caller holds a [`JobHandle`] and collects the
//!   [`ChaseResult`] whenever it is ready.
//! * **Recycled buffers** — jobs check their fired sets +
//!   [`RoundDriver`] out of the engine's spare stack, the one its
//!   blocking sessions use, so a warm engine serves a small tenant
//!   without allocating its arenas.
//!
//! # Phase protocol
//!
//! A coordinator lends its round state, opens a sharded phase with
//! `RunShared::open_enumerate` / `RunShared::open_resolve`, drains
//! its own share, then `RunShared::close_phase`s and takes the state
//! back: closing clears the open bit of the packed phase word
//! (`epoch | mode | open` in one atomic, so phase identity is
//! indivisible) and waits until every registered helper has left.
//! Helpers register **before** reading the phase word and re-check the
//! whole word on **every** claim, so closing a phase early (first
//! failure wins) is always safe — and a helper whose registration races
//! a phase transition can never execute one phase's bodies against the
//! other's cursor (see `RunShared::drain` for the ordering argument);
//! results are pushed under the result mutex before a helper
//! deregisters, which gives the coordinator a happens-before edge on
//! everything it merges. Because the coordinator only moves round state
//! in or out while the phase is closed and the helper count is zero,
//! helpers only ever see a frozen round — and with it comes the
//! byte-identity guarantee: scheduling moves only *who* executes a
//! unit, never *what* the unit computes, and the serial merge/commit
//! stages still run in canonical order. Each unit's work counters
//! travel with its output, so the counters a run reports do not depend
//! on who drained which unit.
//!
//! # Isolation
//!
//! The fault-isolation contract survives multiplexing, per session: a
//! unit body that panics publishes a typed first-failure into its own
//! `RunShared` and the coordinator fails *that* run cleanly; a job
//! slice runs under its own `catch_unwind` and a panicking job
//! completes as [`ChaseOutcome::Failed`] without touching its queue
//! neighbors — the worker thread survives either way. The
//! scheduler-boundary fault sites `sched_unit` (per claimed unit) and
//! `sched_job` (per job slice) make both paths deterministically
//! testable via `NUCHASE_FAULT_PLAN`.
//!
//! # The `serve` facade
//!
//! `nuchase serve` (see the CLI crate) is a thin line-delimited
//! protocol over this module: each request line `<id> <facts…>` (or
//! `<id> @file`) loads a tenant database, submits it, and reports
//! `<id> ok outcome=… atoms=… nulls=… rounds=… wall_us=…` (or
//! `<id> error …`) in request order.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nuchase_model::{AtomIdx, Instance, TgdSet};

use crate::chase::{ChaseConfig, ChaseOutcome, ChaseResult, ChaseStats, ProbeFlow};
use crate::dedup::TermTupleSet;
use crate::fault::{ChaseError, FaultSite};
use crate::nulls::NullStore;
use crate::phase::{
    enumerate_task, enumerate_task_batch, resolve_range, ApplyState, ResolvedBatch, RoundCtx,
    RoundDriver, Task, TriggerBatch, WorkerScratch,
};
use crate::session::{Lanes, PreparedProgram, RunCtl, SessionCore, SpareParts};

/// The worker count `--threads auto` resolves to: the machine's
/// available parallelism (1 if it cannot be determined).
pub fn auto_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Minimum delta size (in atoms) for a non-fused round to share its
/// enumerate units with the scheduler's helpers. A deep chase spends
/// most of its rounds on deltas of a handful of atoms — there the
/// open/close handshake costs more than the enumeration it would shard,
/// so the calling thread drains those rounds alone and never wakes a
/// worker. The choice only moves *who* enumerates, never *what*:
/// batches are canonical either way, so results do not depend on it.
pub const POOL_DELTA_MIN: AtomIdx = 2048;

/// A non-fused round with at least this many tasks shares its units
/// regardless of delta size (many rules × pivots can carry real work on
/// a small delta).
pub const POOL_TASKS_MIN: usize = 16;

/// Minimum planned triggers for a round to share its resolve stage with
/// the helpers; below it the calling thread resolves alone (the same
/// handshake-vs-work tradeoff as [`POOL_DELTA_MIN`], and equally
/// invisible in the results).
pub const RESOLVE_POOL_MIN: usize = 1024;

/// Which sharded phase a run currently exposes to helpers.
const MODE_ENUMERATE: usize = 0;
const MODE_RESOLVE: usize = 1;

/// Layout of the packed phase word ([`RunShared::phase`]): bit 0 is the
/// open flag, bit 1 the mode ([`MODE_ENUMERATE`] / [`MODE_RESOLVE`]),
/// bits 2.. an epoch bumped on every open. One word, so a helper can
/// never pair a stale mode with a fresh open flag — the failure mode
/// that would let an enumerate-mode visit consume a resolve phase's
/// cursor (duplicating enumerate results into the next round while the
/// claimed resolve chunks silently vanish from the commit).
const PHASE_OPEN: usize = 1;
const PHASE_MODE_SHIFT: u32 = 1;
const PHASE_EPOCH_SHIFT: u32 = 2;

/// Accepted triggers per resolve-phase work unit. Like [`Task`] windows,
/// a pure function of the round — never of the worker count.
const RESOLVE_CHUNK: u32 = 256;

/// The round state a coordinator lends to its [`RunShared`] for one
/// sharded phase ([`Lend`]). Lives behind one `RwLock`: helpers hold
/// read guards while enumerating or resolving; the coordinator takes
/// the write guard only while no phase is open (helper count zero) to
/// move the state in and back out.
#[derive(Debug, Default)]
pub(crate) struct RoundState {
    pub(crate) instance: Instance,
    /// Authoritative per-rule fired sets — mutated only by the merge
    /// stage, frozen (read-only) during enumeration.
    pub(crate) fired: Vec<TermTupleSet>,
    /// Canonical task list of the current round (enumerate phase).
    pub(crate) tasks: Vec<Task>,
    /// The apply-pipeline buffers: the accepted batch and null plan are
    /// frozen here for the resolve phase's helpers.
    pub(crate) apply: crate::phase::ApplyBuffers,
    pub(crate) delta_start: AtomIdx,
    /// Whether this round's enumerate phase runs the columnar batch path
    /// ([`enumerate_task_batch`]) instead of the per-trigger backtracking
    /// search. Decided by the coordinator in the prepare stage — a pure
    /// function of the round's delta and the run's resolved thresholds —
    /// and frozen for the helpers. The choice only moves *how* a task
    /// enumerates, never *what*: both paths yield the same triggers in
    /// the same order.
    pub(crate) batch: bool,
}

/// Everything one blocking **run** shares between its coordinator and
/// any helpers the scheduler sends its way. `Arc`-shared so workers can
/// hold it without borrowing from the coordinator's stack; published on
/// the scheduler board from the run's first shared phase to its end.
#[derive(Debug)]
pub(crate) struct RunShared {
    pub(crate) tgds: Arc<TgdSet>,
    pub(crate) config: ChaseConfig,
    pub(crate) round: RwLock<RoundState>,
    /// The shared unit cursor helpers claim from (task index in the
    /// enumerate phase, range index in the resolve phase).
    next_unit: AtomicUsize,
    /// Unit count of the currently open phase (for the board scan).
    total_units: AtomicUsize,
    /// The packed phase identity (`epoch << 2 | mode << 1 | open`, see
    /// [`PHASE_OPEN`]). A helper reads it once — after registering — and
    /// re-checks it on *every* claim, so an early close (failure) stops
    /// it at the next unit boundary and a phase transition that raced
    /// its registration can never hand it the wrong cursor.
    phase: AtomicUsize,
    /// Fast-path flag for "a unit failed": claim loops stop early
    /// without taking the failure mutex.
    failed: AtomicBool,
    /// Helpers currently registered with this run. Registration happens
    /// before the first claim; deregistration (under `idle`) after the
    /// helper's results are pushed.
    helpers: AtomicUsize,
    /// Lock + condvar the coordinator blocks on in
    /// [`RunShared::close_phase`] until `helpers` drains to zero.
    idle: Mutex<()>,
    idle_cv: Condvar,
    /// Completed enumerate units, published in completion order and
    /// re-sorted canonically by the coordinator.
    pub(crate) results: Mutex<Vec<UnitOutput>>,
    /// Completed resolve units, re-sorted by range start.
    pub(crate) resolve_results: Mutex<Vec<ResolvedBatch>>,
    /// Recycled (cleared) arenas: popped per unit, returned by the
    /// coordinator after the round — the steady state allocates no new
    /// arenas.
    pub(crate) spare: Mutex<Vec<TriggerBatch>>,
    pub(crate) spare_resolved: Mutex<Vec<ResolvedBatch>>,
    /// First unit failure of the run (typed): drains catch their unit
    /// bodies, publish here, and the coordinator fails the run cleanly
    /// after closing the phase. First failure wins.
    failure: Mutex<Option<ChaseError>>,
}

impl RunShared {
    /// A fresh run with no state lent and no phase open.
    pub(crate) fn new(tgds: Arc<TgdSet>, config: ChaseConfig) -> Self {
        RunShared {
            tgds,
            config,
            round: RwLock::new(RoundState::default()),
            next_unit: AtomicUsize::new(0),
            total_units: AtomicUsize::new(0),
            phase: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            helpers: AtomicUsize::new(0),
            idle: Mutex::new(()),
            idle_cv: Condvar::new(),
            results: Mutex::new(Vec::new()),
            resolve_results: Mutex::new(Vec::new()),
            spare: Mutex::new(Vec::new()),
            spare_resolved: Mutex::new(Vec::new()),
            failure: Mutex::new(None),
        }
    }

    /// Opens the enumerate phase over `tasks` units. The caller must not
    /// hold the round write guard (helpers take read guards per unit).
    pub(crate) fn open_enumerate(&self, tasks: usize) {
        self.open_phase(MODE_ENUMERATE, tasks);
    }

    /// Opens the resolve phase over `planned` accepted triggers
    /// (chunked into [`RESOLVE_CHUNK`]-sized ranges).
    pub(crate) fn open_resolve(&self, planned: usize) {
        let units = planned.div_ceil(RESOLVE_CHUNK as usize);
        self.open_phase(MODE_RESOLVE, units);
    }

    fn open_phase(&self, mode: usize, units: usize) {
        self.next_unit.store(0, Ordering::Relaxed);
        self.total_units.store(units, Ordering::Release);
        // One SeqCst store publishes epoch + mode + open as a unit,
        // after the cursor reset above: a helper that observes this
        // word observes a consistent phase (see `drain`). Only the
        // coordinator writes the word, so the epoch bump needs no RMW.
        let epoch = (self.phase.load(Ordering::Relaxed) >> PHASE_EPOCH_SHIFT).wrapping_add(1);
        self.phase.store(
            (epoch << PHASE_EPOCH_SHIFT) | (mode << PHASE_MODE_SHIFT) | PHASE_OPEN,
            Ordering::SeqCst,
        );
    }

    /// Closes the current phase: stops further claims and waits until
    /// every registered helper has pushed its results and left. Returns
    /// the seconds the coordinator spent waiting on stragglers (booked
    /// into [`ChaseStats::sched_wait_secs`]). After this returns the
    /// coordinator may take the round write guard.
    pub(crate) fn close_phase(&self) -> f64 {
        // Clear the open bit *before* the helpers check below. Paired
        // with helpers registering before their phase read, SeqCst on
        // both sides closes the late-registration race: a helper whose
        // registration this check misses is guaranteed to read the
        // cleared word (or a later one) and leave without claiming.
        self.phase.fetch_and(!PHASE_OPEN, Ordering::SeqCst);
        let mut guard = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if self.helpers.load(Ordering::SeqCst) == 0 {
            return 0.0;
        }
        let mark = Instant::now();
        while self.helpers.load(Ordering::SeqCst) > 0 {
            guard = self.idle_cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
        mark.elapsed().as_secs_f64()
    }

    /// Unconditionally closes whatever phase might be open — what a
    /// [`Lend`] does before handing the round state back (on unwind
    /// too), and the end of a run. Safe to call any number of times.
    pub(crate) fn quiesce(&self) {
        let _ = self.close_phase();
    }

    /// Does this run currently have claimable units? (The scheduler's
    /// board scan; a stale `true` is harmless — the helper re-checks
    /// `open` on registration.)
    fn has_work(&self) -> bool {
        self.phase.load(Ordering::Acquire) & PHASE_OPEN != 0
            && !self.failed.load(Ordering::Relaxed)
            && self.next_unit.load(Ordering::Relaxed) < self.total_units.load(Ordering::Acquire)
    }

    /// A helper's whole visit: register, drain claims until the phase
    /// is dry or closed, push results, deregister (waking a closing
    /// coordinator). Unit panics are caught and published as this run's
    /// first failure — the helper thread always survives.
    pub(crate) fn help(&self, ws: &mut WorkerScratch) {
        self.helpers.fetch_add(1, Ordering::SeqCst);
        self.drain(ws);
        let _guard = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        if self.helpers.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.idle_cv.notify_all();
        }
    }

    /// Claims and executes units of the open phase until the cursor runs
    /// dry or the phase closes. Used by helpers (via [`RunShared::help`])
    /// and by the coordinator for its own share. Panics inside unit
    /// bodies are caught here and recorded as the run's first failure.
    ///
    /// The visit is bound to one phase identity: the packed word is read
    /// once here and every claim re-verifies it. This is what makes a
    /// helper's registration racing a phase transition safe. If the
    /// closing coordinator saw the registration, it waits for the helper
    /// and no transition happens under it. If it did not — the helper
    /// registered after `close_phase`'s helpers check — then SeqCst
    /// ordering (registration is an RMW sequenced before this load, the
    /// coordinator clears the open bit before its helpers check) forces
    /// this load to observe the closed word or the *next* phase's word,
    /// never the stale open one; either the helper leaves or it helps
    /// the new phase under its correct mode and cursor. And once a
    /// registered helper has observed an open word, no further
    /// transition can occur until it deregisters (every later close must
    /// wait on it), so a mid-loop epoch mismatch only ever means "this
    /// phase closed": the claimed index is past the total on a normal
    /// close (the coordinator drains the cursor dry before closing) and
    /// discarded wholesale on a failure close.
    pub(crate) fn drain(&self, ws: &mut WorkerScratch) {
        let ph = self.phase.load(Ordering::SeqCst);
        if ph & PHASE_OPEN == 0 {
            return;
        }
        let caught = catch_unwind(AssertUnwindSafe(|| {
            if (ph >> PHASE_MODE_SHIFT) & 1 == MODE_ENUMERATE {
                self.drain_tasks(ph, ws);
            } else {
                self.drain_resolve(ph, ws);
            }
        }));
        if let Err(payload) = caught {
            self.record_failure(payload.as_ref());
        }
    }

    /// Steals enumerate tasks off the unit cursor until it runs dry (or
    /// the phase closes), enumerating each against the frozen round
    /// snapshot and batching the results. Batch arenas come from the
    /// recycle pool, so the steady state allocates nothing per task.
    fn drain_tasks(&self, ph: usize, ws: &mut WorkerScratch) {
        let mut out: Vec<UnitOutput> = Vec::new();
        loop {
            if self.phase.load(Ordering::SeqCst) != ph || self.failed.load(Ordering::Relaxed) {
                break;
            }
            let i = self.next_unit.fetch_add(1, Ordering::Relaxed);
            let round = self.round.read().unwrap_or_else(|e| e.into_inner());
            if i >= round.tasks.len() {
                break;
            }
            // Scheduler-boundary fault site: fires per executed unit
            // (after the dry-cursor check, so hit counts stay a pure
            // function of the round decomposition).
            nuchase_model::fault::check(FaultSite::SchedUnit);
            let task = round.tasks[i];
            let snapshot = round.instance.snapshot();
            let ctx = RoundCtx {
                tgds: &self.tgds,
                variant: self.config.variant,
                delta_start: round.delta_start,
            };
            let mut batch = self
                .spare
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop()
                .unwrap_or_default();
            let considered = if round.batch {
                // Helper emit spans overlap in wall time; the
                // coordinator books the whole shared lap as probe, so
                // the span is discarded here.
                let mut emit = 0.0f64;
                enumerate_task_batch(
                    &snapshot,
                    ctx,
                    task,
                    &round.fired[task.rule.index()],
                    ws,
                    &mut batch,
                    &mut emit,
                )
            } else {
                enumerate_task(
                    &snapshot,
                    ctx,
                    task,
                    &round.fired[task.rule.index()],
                    ws,
                    &mut batch,
                )
            };
            drop(round);
            out.push(UnitOutput {
                task: i as u32,
                batch,
                considered,
                flow: ws.take_probes(),
            });
        }
        if !out.is_empty() {
            self.results
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut out);
        }
    }

    /// Steals resolve ranges off the unit cursor until the planned
    /// prefix is covered (or the phase closes), resolving each against
    /// the frozen snapshot + accepted batch + null plan.
    fn drain_resolve(&self, ph: usize, ws: &mut WorkerScratch) {
        let mut out: Vec<ResolvedBatch> = Vec::new();
        loop {
            if self.phase.load(Ordering::SeqCst) != ph || self.failed.load(Ordering::Relaxed) {
                break;
            }
            let r = self.next_unit.fetch_add(1, Ordering::Relaxed) as u64;
            let round = self.round.read().unwrap_or_else(|e| e.into_inner());
            let planned = round.apply.plan.planned() as u64;
            let start = r * u64::from(RESOLVE_CHUNK);
            if start >= planned {
                break;
            }
            nuchase_model::fault::check(FaultSite::SchedUnit);
            let end = (start + u64::from(RESOLVE_CHUNK)).min(planned);
            let snapshot = round.instance.snapshot();
            let mut rb = self
                .spare_resolved
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop()
                .unwrap_or_default();
            resolve_range(
                &snapshot,
                &self.tgds,
                &self.config,
                &round.apply.accepted,
                &round.apply.plan,
                (start as u32, end as u32),
                ws,
                &mut rb,
            );
            drop(round);
            out.push(rb);
        }
        if !out.is_empty() {
            self.resolve_results
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut out);
        }
    }

    /// Publishes a unit panic (first failure wins) for the coordinator's
    /// end-of-phase check, and raises the early-stop flag.
    fn record_failure(&self, payload: &(dyn std::any::Any + Send)) {
        let err = ChaseError::from_panic(payload);
        self.failed.store(true, Ordering::Relaxed);
        let mut slot = self.failure.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// Takes the run's published unit failure, if any.
    pub(crate) fn take_failure(&self) -> Option<ChaseError> {
        self.failure
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }
}

/// One enumerate unit's output, as its drainer publishes it: the unit's
/// task index (its canonical merge position), its trigger batch, the
/// homomorphisms it considered, and its batched-probe gauges — so the
/// coordinator books every unit's work, whoever drained it.
#[derive(Debug)]
pub(crate) struct UnitOutput {
    task: u32,
    batch: TriggerBatch,
    considered: usize,
    flow: ProbeFlow,
}

/// A blocking `threads ≥ 2` run's line to the scheduler's helpers. The
/// first phase the round loop shares publishes a [`RunShared`] on the
/// board; [`Helpers::retire`] (or dropping, on unwind) takes it off
/// again. A run whose rounds never get wide enough never publishes.
pub(crate) struct Helpers<'a> {
    sched: &'a Scheduler,
    program: &'a PreparedProgram,
    config: &'a ChaseConfig,
    run: Option<Arc<RunShared>>,
    /// Unit outputs of the last shared enumerate phase (recycled).
    units: Vec<UnitOutput>,
    /// The last shared resolve stage's output, in range order.
    resolved: Vec<ResolvedBatch>,
}

impl<'a> Helpers<'a> {
    pub(crate) fn new(
        sched: &'a Scheduler,
        program: &'a PreparedProgram,
        config: &'a ChaseConfig,
    ) -> Self {
        Helpers {
            sched,
            program,
            config,
            run: None,
            units: Vec::new(),
            resolved: Vec::new(),
        }
    }

    /// Does a non-fused round of `delta` atoms and `tasks` units share
    /// its enumerate phase?
    pub(crate) fn share_enumerate(delta: AtomIdx, tasks: usize) -> bool {
        delta >= POOL_DELTA_MIN || tasks >= POOL_TASKS_MIN
    }

    /// The run's published [`RunShared`], publishing it on first use.
    fn published(&mut self) -> Arc<RunShared> {
        let (sched, program, config) = (self.sched, self.program, self.config);
        Arc::clone(self.run.get_or_insert_with(|| {
            let run = Arc::new(RunShared::new(program.shared_tgds(), *config));
            sched.publish(&run);
            run
        }))
    }

    /// Drains the round's task list together with the helpers into
    /// [`RoundDriver::units`] (canonical order), booking every unit's
    /// considered count, probe gauges, and per-rule attribution. A
    /// failed unit fails the run; the enumerate phase mutates nothing,
    /// so the session is still at the round boundary.
    pub(crate) fn enumerate(
        &mut self,
        core: &mut SessionCore,
        driver: &mut RoundDriver,
        stats: &mut ChaseStats,
    ) -> Result<(), ChaseError> {
        let run = self.published();
        let tasks = driver.tasks.len();
        {
            let lend = Lend::new(&run, core, driver);
            run.open_enumerate(tasks);
            self.sched.kick();
            run.drain(&mut lend.driver.ws);
            stats.sched_wait_secs += run.close_phase();
        }
        stats.sched_occupancy = stats.sched_occupancy.max(self.sched.occupancy());
        if let Some(err) = run.take_failure() {
            return Err(err);
        }
        std::mem::swap(
            &mut self.units,
            &mut *run.results.lock().unwrap_or_else(|e| e.into_inner()),
        );
        self.units.sort_unstable_by_key(|u| u.task);
        for u in self.units.drain(..) {
            stats.triggers_considered += u.considered;
            stats.note_probe_flow(u.flow);
            core.apply
                .note_considered(driver.tasks[u.task as usize].rule, u.considered);
            driver.units.push(u.batch);
        }
        Ok(())
    }

    /// Resolves the round's planned triggers together with the helpers
    /// into [`Helpers::resolved`]. A failed range fails the run; the
    /// fired sets were already merged this round, so the session rolls
    /// back to the round's watermarks and replays it on resume.
    pub(crate) fn resolve(
        &mut self,
        core: &mut SessionCore,
        driver: &mut RoundDriver,
        stats: &mut ChaseStats,
    ) -> Result<(), ChaseError> {
        let run = self.published();
        run.spare_resolved
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(self.resolved.drain(..).map(|mut rb| {
                rb.clear();
                rb
            }));
        let planned = driver.bufs.plan.planned();
        {
            let lend = Lend::new(&run, core, driver);
            run.open_resolve(planned);
            self.sched.kick();
            run.drain(&mut lend.driver.ws);
            stats.sched_wait_secs += run.close_phase();
        }
        stats.sched_occupancy = stats.sched_occupancy.max(self.sched.occupancy());
        if let Some(err) = run.take_failure() {
            return Err(err);
        }
        std::mem::swap(
            &mut self.resolved,
            &mut *run
                .resolve_results
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        self.resolved.sort_unstable_by_key(ResolvedBatch::start);
        Ok(())
    }

    /// The output of the last [`Helpers::resolve`], in range order.
    pub(crate) fn resolved(&self) -> &[ResolvedBatch] {
        &self.resolved
    }

    /// Hands merged unit batches back to the run's arena pool.
    pub(crate) fn recycle(&mut self, units: &mut Vec<TriggerBatch>) {
        if let Some(run) = &self.run {
            run.spare
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(units.drain(..).map(|mut b| {
                    b.clear();
                    b
                }));
        }
    }

    /// Takes the run off the board. Returns whether it was ever
    /// published (that is, whether any phase was shared).
    pub(crate) fn retire(mut self) -> bool {
        self.take_off_board()
    }

    fn take_off_board(&mut self) -> bool {
        let Some(run) = self.run.take() else {
            return false;
        };
        run.quiesce();
        self.sched.retire(&run);
        true
    }
}

impl Drop for Helpers<'_> {
    fn drop(&mut self) {
        self.take_off_board();
    }
}

/// The round state a coordinator lends to its [`RunShared`] for one
/// shared phase: the instance, fired sets, task list, and apply buffers
/// move in on construction and back out on drop — after the phase is
/// quiesced, and on unwind too, so the session never loses its state to
/// the shared run.
struct Lend<'a> {
    run: &'a RunShared,
    core: &'a mut SessionCore,
    driver: &'a mut RoundDriver,
}

impl<'a> Lend<'a> {
    fn new(run: &'a RunShared, core: &'a mut SessionCore, driver: &'a mut RoundDriver) -> Self {
        let mut round = run.round.write().unwrap_or_else(|e| e.into_inner());
        round.instance = std::mem::take(&mut core.instance);
        round.fired = std::mem::take(&mut core.fired);
        round.tasks = std::mem::take(&mut driver.tasks);
        round.apply = std::mem::take(&mut driver.bufs);
        round.delta_start = core.delta_start;
        round.batch = driver.batch_round();
        drop(round);
        Lend { run, core, driver }
    }
}

impl Drop for Lend<'_> {
    fn drop(&mut self) {
        self.run.quiesce();
        let mut round = self.run.round.write().unwrap_or_else(|e| e.into_inner());
        self.core.instance = std::mem::take(&mut round.instance);
        self.core.fired = std::mem::take(&mut round.fired);
        self.driver.tasks = std::mem::take(&mut round.tasks);
        self.driver.bufs = std::mem::take(&mut round.apply);
    }
}

/// The result slot + control flags one submitted job shares with its
/// [`JobHandle`].
#[derive(Debug, Default)]
struct JobShared {
    slot: Mutex<Option<ChaseResult>>,
    cv: Condvar,
    cancel: AtomicBool,
}

/// A handle to a chase submitted with
/// [`Engine::submit`](crate::Engine::submit): the job runs on the
/// engine's scheduler in round-boundary quanta while the caller keeps
/// working, and the result is collected here whenever it is ready.
///
/// Dropping the handle detaches the job (it still runs to completion on
/// the scheduler; the result is discarded). Dropping the *engine* while
/// jobs are queued completes them as [`ChaseOutcome::Cancelled`], so
/// [`JobHandle::wait`] never hangs.
#[derive(Debug)]
pub struct JobHandle {
    shared: Arc<JobShared>,
    /// Back-reference to the scheduler so a blocked [`JobHandle::wait`]
    /// can run queued job slices instead of parking (caller-runs).
    /// Weak: a handle may outlive its engine, whose drop already
    /// completes every queued job.
    sched: Weak<SchedInner>,
}

impl JobHandle {
    /// Blocks until the job completes and returns its result.
    ///
    /// A waiting caller does not idle: while its own job is unfinished
    /// and the queue has entries, it runs job slices right here (the
    /// same caller-helps discipline the pool applies to published
    /// runs), registered as an active helper so pool workers leave the
    /// queue to it while the lane budget is full. This is what keeps a
    /// submit-everything-then-wait burst on a small machine from
    /// degrading into a context-switch ping-pong between the caller
    /// and one worker — the caller chews through the queue itself and
    /// parks only when the queue is empty.
    pub fn wait(self) -> ChaseResult {
        if let Some(inner) = self.sched.upgrade() {
            let helping = HelperGuard::register(&inner);
            loop {
                if let Some(result) = self.try_take() {
                    return result;
                }
                let queued = {
                    let mut board = inner.board.lock().unwrap_or_else(|e| e.into_inner());
                    let queued = board.jobs.pop_front();
                    // Cascade: if jobs remain and a lane is still free
                    // beyond this caller, a parked worker can drain in
                    // parallel. Never fires on a one-lane engine.
                    if queued.is_some()
                        && !board.jobs.is_empty()
                        && inner.busy.load(Ordering::Relaxed)
                            + inner.helpers.load(Ordering::Relaxed)
                            < inner.lanes
                    {
                        inner.work_cv.notify_one();
                    }
                    queued
                };
                match queued {
                    Some(queued) => run_job_slice(&inner, queued),
                    None => break,
                }
            }
            drop(helping);
        }
        self.park_take()
    }

    /// Waits for every handle in the batch and returns the results in
    /// handle order. Semantically `handles.map(JobHandle::wait)`, but
    /// the whole collection drains under a *single* helper
    /// registration: per-handle `wait` registers and deregisters once
    /// per handle, and each deregistration (correctly) re-wakes the
    /// pool when jobs remain — so collecting a burst one handle at a
    /// time on a saturated small machine degrades into a caller/worker
    /// wake ping-pong, one wake per job. Here the caller stays
    /// registered while it chews through the queue, collects ready
    /// results as it goes, and parks only for jobs a pool worker is
    /// still running. Like any draining caller it takes queue entries
    /// in admission order, so it may run jobs submitted by others that
    /// sit ahead of its own.
    pub fn wait_all(handles: Vec<JobHandle>) -> Vec<ChaseResult> {
        let mut ready = Vec::with_capacity(handles.len());
        Self::wait_each(handles, |_, result| ready.push(result));
        ready
    }

    /// Streaming [`JobHandle::wait_all`]: delivers each result to the
    /// callback (with its handle index, in index order) instead of
    /// accumulating the batch. This is the shape a server wants — and
    /// the shape the memory hierarchy wants: a batch of N chases holds
    /// N result instances (each pinning at least an arena chunk) until
    /// the vector is returned, so a large burst's collection churns
    /// megabytes through cache. Here each result is handed over, and
    /// usually freed, while it is still warm; only one or two are ever
    /// live in the drain loop.
    pub fn wait_each(handles: Vec<JobHandle>, mut deliver: impl FnMut(usize, ChaseResult)) {
        // First handle whose result has not been delivered yet.
        let mut next = 0;
        if let Some(inner) = handles.iter().find_map(|h| h.sched.upgrade()) {
            let helping = HelperGuard::register(&inner);
            loop {
                while next < handles.len() {
                    match handles[next].try_take() {
                        Some(result) => {
                            deliver(next, result);
                            next += 1;
                        }
                        None => break,
                    }
                }
                if next == handles.len() {
                    break;
                }
                let queued = {
                    let mut board = inner.board.lock().unwrap_or_else(|e| e.into_inner());
                    let queued = board.jobs.pop_front();
                    if queued.is_some()
                        && !board.jobs.is_empty()
                        && inner.busy.load(Ordering::Relaxed)
                            + inner.helpers.load(Ordering::Relaxed)
                            < inner.lanes
                    {
                        inner.work_cv.notify_one();
                    }
                    queued
                };
                match queued {
                    Some(queued) => run_job_slice(&inner, queued),
                    None => break,
                }
            }
            drop(helping);
        }
        for (i, handle) in handles.into_iter().enumerate().skip(next) {
            deliver(i, handle.park_take());
        }
    }

    /// The terminal park: blocks on the result slot until the job
    /// completes elsewhere. Callers must not hold a [`HelperGuard`]
    /// here — a registered-but-parked caller would pin the lane budget
    /// while contributing nothing, deferring the workers that are the
    /// only ones able to finish its job.
    fn park_take(self) -> ChaseResult {
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        while slot.is_none() {
            slot = self.shared.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        slot.take().expect("checked Some under the lock")
    }

    /// Takes the result if the job has completed (non-blocking).
    pub fn try_take(&self) -> Option<ChaseResult> {
        self.shared
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
    }

    /// Has the job completed (result ready to take)?
    pub fn is_done(&self) -> bool {
        self.shared
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_some()
    }

    /// Requests cancellation: the job stops at its next round boundary
    /// and completes as [`ChaseOutcome::Cancelled`].
    pub fn cancel(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }
}

/// RAII registration of a caller draining the job queue from
/// [`JobHandle::wait`]. While registered, the caller counts against
/// the scheduler's lane budget (workers defer job pops to it when the
/// budget is full). Deregistration re-checks the queue under the board
/// lock and wakes the workers if jobs remain — a job requeued between
/// the caller's last scan and its park must not strand behind a
/// deferring (parked) worker. The guard is RAII so a panicking job
/// slice on the caller's thread cannot leak the helper count.
struct HelperGuard {
    inner: Arc<SchedInner>,
}

impl HelperGuard {
    fn register(inner: &Arc<SchedInner>) -> Self {
        inner.helpers.fetch_add(1, Ordering::Relaxed);
        HelperGuard {
            inner: Arc::clone(inner),
        }
    }
}

impl Drop for HelperGuard {
    fn drop(&mut self) {
        self.inner.helpers.fetch_sub(1, Ordering::Relaxed);
        // Notify under the board lock: a worker that just observed a
        // full lane budget must see either the decrement or this wake,
        // never neither.
        let board = self.inner.board.lock().unwrap_or_else(|e| e.into_inner());
        if !board.jobs.is_empty() {
            self.inner.work_cv.notify_all();
        }
    }
}

/// A submitted chase a worker has not touched yet: just the inputs.
/// Session state (fired sets, driver, apply state) is **not** built at
/// submit time — materialization happens on the worker at the first
/// slice ([`PendingJob::materialize`]), where the parts cache is warm
/// from just-finished jobs. Eager materialization made `submit` itself
/// the bottleneck under burst load: queueing N thousand sessions built
/// N thousand cold driver/fired-set/arena groups up front (none
/// recyclable — nothing had finished yet), and every one was
/// cache-cold again by the time a worker reached it.
#[derive(Debug)]
struct PendingJob {
    program: PreparedProgram,
    config: ChaseConfig,
    /// The input instance, shared — a queue entry holds a refcount,
    /// not a deep copy. `Engine::submit` wraps a fresh clone (sole
    /// owner: materialization moves it out, zero extra copies), while
    /// `Engine::submit_shared` lets a server submit many chases over
    /// one resident tenant base without copying anything at enqueue
    /// time: the per-chase working copy is made at materialization,
    /// from a source that stays warm across the burst, instead of N
    /// cold copies riding the queue.
    database: Arc<Instance>,
    /// When the job entered the queue; measured into
    /// [`ChaseStats::sched_wait_secs`] at the first slice.
    enqueued: Instant,
    shared: Arc<JobShared>,
}

impl PendingJob {
    /// The chase's working copy of the input: moved out when this job
    /// holds the last reference, cloned from the (warm) shared base
    /// otherwise.
    fn claim_database(database: Arc<Instance>) -> Instance {
        Arc::try_unwrap(database).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Builds the full session state, checking buffers out of the
    /// engine's recycle stack. The driver is re-armed by
    /// [`Job::slice`]'s own `restart`, so none of this touches the
    /// clock or the run's timing.
    fn materialize(self, inner: &SchedInner) -> Job {
        let (fired, driver) = inner.parts.take(&self.config, &self.program);
        let database = Self::claim_database(self.database);
        let base_atoms = database.len();
        Job {
            core: SessionCore {
                instance: database,
                fired,
                apply: ApplyState::new(&self.config, base_atoms),
                delta_start: 0,
                base_atoms,
            },
            program: self.program,
            config: self.config,
            driver,
            marks: Vec::new(),
            lifetime: ChaseStats::default(),
            enqueued: self.enqueued,
            queue_wait: 0.0,
            shared: self.shared,
        }
    }

    /// Completes a job that never ran (cancellation or engine
    /// shutdown): the result is the untouched input database.
    fn finalize(self, outcome: ChaseOutcome) {
        let result = ChaseResult {
            instance: Self::claim_database(self.database),
            nulls: NullStore::default(),
            outcome,
            stats: ChaseStats::default(),
            forest: None,
            provenance: None,
            telemetry: None,
        };
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        self.shared.cv.notify_all();
    }
}

/// A queue entry: a submitted chase either waiting for its first slice
/// ([`PendingJob`]) or mid-chase between quanta ([`Job`]). FIFO across
/// both — requeued slices go to the back, behind newer submissions.
/// Payloads are boxed so the queue moves a pointer, not the ~2.7 KB
/// session state, on every requeue and `VecDeque` growth.
#[derive(Debug)]
enum Queued {
    Fresh(Box<PendingJob>),
    Slice(Box<Job>),
}

impl Queued {
    /// Completes the entry without running it (cancellation paths).
    fn finalize(self, outcome: ChaseOutcome, inner: &SchedInner) {
        match self {
            Queued::Fresh(pending) => pending.finalize(outcome),
            Queued::Slice(job) => job.finalize(outcome, inner),
        }
    }
}

/// One submitted (non-blocking) chase mid-flight: the whole session
/// state boxed into a queue entry, driven by workers in round-boundary
/// quanta.
#[derive(Debug)]
struct Job {
    program: PreparedProgram,
    config: ChaseConfig,
    core: SessionCore,
    driver: RoundDriver,
    /// Round-start fired watermarks (unused across slices — slices end
    /// at round boundaries — but required by the round loop's contract).
    marks: Vec<u32>,
    /// Per-slice stats folded into the job's lifetime totals.
    lifetime: ChaseStats,
    /// When the job (re-)entered the queue; measured into
    /// [`ChaseStats::sched_wait_secs`] at the next slice start.
    enqueued: Instant,
    queue_wait: f64,
    shared: Arc<JobShared>,
}

impl Job {
    /// Runs one quantum of the job's round loop. Returns
    /// [`ChaseOutcome::Deadline`] when the quantum expired with the
    /// chase unfinished (the caller requeues); any other outcome is
    /// final. The run bookkeeping — `catch_unwind` included, so a
    /// panicking job fails only itself — is the session's
    /// ([`SessionCore::run`]).
    fn slice(&mut self, quantum: Duration, occupancy: f64) -> ChaseOutcome {
        let mark = Instant::now();
        let mut stats = ChaseStats {
            sched_wait_secs: std::mem::take(&mut self.queue_wait),
            sched_occupancy: occupancy,
            ..Default::default()
        };
        let ctl = RunCtl {
            // The quantum is the only deadline a job ever runs under
            // (jobs expose no user deadline), so `Deadline` is
            // unambiguously "requeue".
            deadline: Some(mark + quantum),
            ..RunCtl::new(
                &self.config,
                self.lifetime.rounds,
                &self.shared.cancel,
                &mut self.marks,
            )
        };
        let outcome = self.core.run(
            &self.program,
            &self.config,
            &mut self.driver,
            Lanes::JobSlice,
            ctl,
            &mut stats,
            mark,
        );
        self.lifetime.absorb(&stats);
        outcome
    }

    /// Completes the job: builds the [`ChaseResult`] (mirroring
    /// `ChaseSession::finish`), recycles the buffers into the engine's
    /// recycle stack (never after a failure — a panic may have left
    /// them mid-write), and fills the handle's slot.
    fn finalize(self, outcome: ChaseOutcome, inner: &SchedInner) {
        let Job {
            core,
            driver,
            lifetime,
            shared,
            ..
        } = self;
        let mut stats = lifetime;
        stats.atoms_created = core.instance.len() - core.base_atoms;
        stats.nulls_created = core.apply.nulls.len();
        let telemetry = core.apply.telemetry_snapshot(&stats).map(Box::new);
        if !matches!(outcome, ChaseOutcome::Failed(_)) {
            inner.parts.store(core.fired, driver);
        }
        let result = ChaseResult {
            instance: core.instance,
            nulls: core.apply.nulls,
            outcome,
            stats,
            forest: core.apply.forest,
            provenance: core.apply.provenance,
            telemetry,
        };
        let mut slot = shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        *slot = Some(result);
        shared.cv.notify_all();
    }
}

/// The scheduler's shared board: published blocking runs (helped in
/// round-robin order) and the queue of submitted jobs.
#[derive(Debug, Default)]
struct Board {
    runs: Vec<Arc<RunShared>>,
    /// Round-robin scan start, advanced past each helped run so no
    /// single wide run monopolizes the helpers.
    rotation: usize,
    jobs: VecDeque<Queued>,
    /// Workers currently sitting out an admission grace period
    /// (timed park in `worker_main`). A napping worker re-scans the
    /// queue at its timeout, so `Scheduler::submit` skips the
    /// empty->nonempty wake while one is up — waking a napper only
    /// restarts its nap, at the price of a context-switch pair per
    /// submit. Guarded by the board mutex (no atomics games): a
    /// submit that reads a nonzero count under the lock is ordered
    /// before the napper's re-scan.
    napping: usize,
    shutdown: bool,
}

/// Shared state between the [`Scheduler`] facade and its workers.
#[derive(Debug)]
struct SchedInner {
    board: Mutex<Board>,
    work_cv: Condvar,
    /// Workers currently executing (helping a run or slicing a job) —
    /// the occupancy gauge's numerator.
    busy: AtomicUsize,
    /// Callers currently draining the job queue from inside
    /// [`JobHandle::wait`]. Each occupies one execution lane, so pool
    /// workers defer job pops while `busy + helpers >= lanes` — on a
    /// one-lane engine the worker never contends with a draining
    /// caller for the only core.
    helpers: AtomicUsize,
    workers: usize,
    /// The engine's parallelism budget (`ChaseConfig::threads`): how
    /// many threads may execute work at once, counting waiting callers.
    /// The pool itself holds `workers = max(lanes - 1, 1)` threads —
    /// the caller is the remaining lane.
    lanes: usize,
    /// Job slice quantum (`NUCHASE_SCHED_QUANTUM_US`, default 500µs),
    /// resolved once at scheduler construction.
    quantum: Duration,
    /// The owning engine's recycled buffers, which jobs share with its
    /// blocking sessions.
    parts: Arc<SpareParts>,
}

/// The engine-wide scheduler: a persistent pool of worker threads
/// multiplexing every in-flight session — blocking pooled runs (helped
/// through their sharded phases) and submitted jobs (driven in fair
/// round-boundary quanta). Owned by an [`Engine`](crate::Engine);
/// dropping it shuts the workers down, joins them, and completes any
/// still-queued jobs as [`ChaseOutcome::Cancelled`].
#[derive(Debug)]
pub(crate) struct Scheduler {
    inner: Arc<SchedInner>,
    handles: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns `workers` parked threads serving `lanes` execution lanes;
    /// jobs recycle their buffers through `parts`.
    pub(crate) fn new(workers: usize, lanes: usize, parts: Arc<SpareParts>) -> Self {
        let quantum = Duration::from_micros(crate::config::env_usize_or(
            "NUCHASE_SCHED_QUANTUM_US",
            500,
        ) as u64);
        let inner = Arc::new(SchedInner {
            board: Mutex::new(Board::default()),
            work_cv: Condvar::new(),
            busy: AtomicUsize::new(0),
            helpers: AtomicUsize::new(0),
            workers,
            lanes,
            quantum,
            parts,
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_main(inner))
            })
            .collect();
        Scheduler { inner, handles }
    }

    /// The fraction of workers currently executing (0.0–1.0) — the
    /// pool-occupancy gauge sampled into [`ChaseStats::sched_occupancy`].
    pub(crate) fn occupancy(&self) -> f64 {
        self.inner.busy.load(Ordering::Relaxed) as f64 / self.inner.workers.max(1) as f64
    }

    /// Puts a blocking run on the board so idle workers can help its
    /// phases. Pair with [`Scheduler::retire`].
    pub(crate) fn publish(&self, run: &Arc<RunShared>) {
        let mut board = self.inner.board.lock().unwrap_or_else(|e| e.into_inner());
        board.runs.push(Arc::clone(run));
    }

    /// Removes a finished run from the board. A worker that still holds
    /// the `Arc` from a stale scan is harmless: the run is quiesced, so
    /// its visit registers, sees the phase closed, and leaves.
    pub(crate) fn retire(&self, run: &Arc<RunShared>) {
        let mut board = self.inner.board.lock().unwrap_or_else(|e| e.into_inner());
        board.runs.retain(|r| !Arc::ptr_eq(r, run));
        if board.rotation >= board.runs.len() {
            board.rotation = 0;
        }
    }

    /// Wakes the workers — called after opening a phase so parked
    /// workers scan the board and find it. Tiny (non-engaged) rounds
    /// never kick, so a deep chain chase leaves the pool asleep.
    pub(crate) fn kick(&self) {
        // Taking the board lock orders this notify against any worker
        // mid scan-then-wait: a worker whose empty scan raced the open
        // holds the board lock until it enters `work_cv.wait`, which
        // releases the lock — so by the time we acquire it here, that
        // worker is waiting and the notify reaches it; a worker that
        // locks after us sees the open phase. A bare notify_all
        // could land in the gap between a worker's empty scan and its
        // wait, parking it through the whole phase: results would stay
        // correct (the coordinator drains every unit itself) but the
        // round silently degrades toward single-threaded.
        let _board = self.inner.board.lock().unwrap_or_else(|e| e.into_inner());
        self.inner.work_cv.notify_all();
    }

    /// Enqueues a non-blocking chase of `database` under `program` and
    /// returns the handle the caller collects the result through. The
    /// queue entry is thin — program handle, config, input instance —
    /// so a submit burst costs its inputs, not a session apiece;
    /// session state materializes on the worker at the first slice.
    pub(crate) fn submit(
        &self,
        program: &PreparedProgram,
        config: &ChaseConfig,
        database: Arc<Instance>,
    ) -> JobHandle {
        let shared = Arc::new(JobShared::default());
        let pending = PendingJob {
            program: program.clone(),
            config: *config,
            database,
            enqueued: Instant::now(),
            shared: Arc::clone(&shared),
        };
        let wake = {
            let mut board = self.inner.board.lock().unwrap_or_else(|e| e.into_inner());
            // Wake on the empty->nonempty transition only, and only
            // when no worker is already napping out an admission
            // grace: a napper re-scans the queue at its timeout, so
            // the job's start is already bounded.
            let wake = board.jobs.is_empty() && board.napping == 0;
            board.jobs.push_back(Queued::Fresh(Box::new(pending)));
            wake
        };
        // Wake a worker only on the empty->nonempty transition. A
        // nonempty queue means drain capacity is already committed:
        // some worker is awake and rechecks the board after its
        // current item (cascading wakes to siblings while lanes are
        // free), or every worker deferred to the lane budget — and
        // whatever fills the budget (a draining caller, a busy worker)
        // notifies when it releases its lane. Submit bursts therefore
        // pay one wake, not one per job, which on a small machine is
        // the difference between draining the queue and ping-ponging
        // the core between submitter and worker.
        if wake {
            self.inner.work_cv.notify_one();
        }
        JobHandle {
            shared,
            sched: Arc::downgrade(&self.inner),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        let pending = {
            let mut board = self.inner.board.lock().unwrap_or_else(|e| e.into_inner());
            board.shutdown = true;
            self.inner.work_cv.notify_all();
            std::mem::take(&mut board.jobs)
        };
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // Workers may have requeued jobs between the shutdown flag and
        // their exit; drain everything and complete it as cancelled so
        // no `JobHandle::wait` ever hangs.
        let mut board = self.inner.board.lock().unwrap_or_else(|e| e.into_inner());
        let late = std::mem::take(&mut board.jobs);
        drop(board);
        for job in pending.into_iter().chain(late) {
            job.finalize(ChaseOutcome::Cancelled, &self.inner);
        }
    }
}

/// What a worker picked off the board.
enum Work {
    Help(Arc<RunShared>),
    Slice(Queued),
}

/// A worker thread's lifetime: park on the board, pick work — helping
/// published runs takes priority over job slices, in round-robin order
/// across runs — execute it, repeat until shutdown.
fn worker_main(inner: Arc<SchedInner>) {
    let mut ws = WorkerScratch::new();
    // Whether this worker has already sat out one admission grace
    // period for the current drain (see below). Reset whenever the
    // worker parks with nothing queued — grace is charged once per
    // idle->draining transition, not once per job.
    let mut grace_spent = false;
    loop {
        let work = {
            let mut board = inner.board.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if board.shutdown {
                    return;
                }
                if let Some(run) = pick_run(&mut board) {
                    break Work::Help(run);
                }
                // Take a job only while a lane is free: draining
                // callers ([`JobHandle::wait`]) count against the
                // engine's parallelism budget, so a one-lane engine's
                // worker leaves the queue to the caller instead of
                // time-slicing the same core against it. The caller
                // notifies when it stops draining with jobs left.
                let executing =
                    inner.busy.load(Ordering::Relaxed) + inner.helpers.load(Ordering::Relaxed);
                if executing < inner.lanes {
                    // Admission grace: the submitting thread counts as
                    // one prospective lane — callers usually turn
                    // around and drain their own jobs. A worker about
                    // to claim the *last* free lane therefore yields it
                    // for one quantum first; jobs nobody claims are
                    // taken at the timeout, so a detached submit still
                    // starts within one quantum (the same bound the
                    // slicer puts on everything else). On a one-lane
                    // engine this is what keeps the worker from
                    // stealing the core — and trashing the cache —
                    // of the very thread feeding the queue. Workers
                    // claiming non-final lanes pop immediately, so
                    // multicore pickup is undamped.
                    if !board.jobs.is_empty() && executing + 1 == inner.lanes && !grace_spent {
                        board.napping += 1;
                        let (b, timeout) = inner
                            .work_cv
                            .wait_timeout(board, inner.quantum)
                            .unwrap_or_else(|e| e.into_inner());
                        board = b;
                        board.napping -= 1;
                        if timeout.timed_out() {
                            grace_spent = true;
                        }
                        continue;
                    }
                    if let Some(job) = board.jobs.pop_front() {
                        // Cascade: submit only wakes a worker on the
                        // empty->nonempty transition, so an activated
                        // worker passes the wake on while jobs remain
                        // and lanes stay free (counting itself, about
                        // to turn busy). One syscall per activated
                        // worker instead of one per submitted job.
                        if !board.jobs.is_empty() && executing + 1 < inner.lanes {
                            inner.work_cv.notify_one();
                        }
                        break Work::Slice(job);
                    }
                }
                grace_spent = false;
                board = inner.work_cv.wait(board).unwrap_or_else(|e| e.into_inner());
            }
        };
        inner.busy.fetch_add(1, Ordering::Relaxed);
        match work {
            Work::Help(run) => run.help(&mut ws),
            Work::Slice(queued) => run_job_slice(&inner, queued),
        }
        inner.busy.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Scans the board (from the rotation point) for a run with claimable
/// units, advancing the rotation so helpers spread across runs.
fn pick_run(board: &mut Board) -> Option<Arc<RunShared>> {
    let n = board.runs.len();
    for k in 0..n {
        let i = (board.rotation + k) % n;
        if board.runs[i].has_work() {
            board.rotation = (i + 1) % n;
            return Some(Arc::clone(&board.runs[i]));
        }
    }
    None
}

/// Runs one quantum of a queued job and routes the outcome: quantum
/// expiry requeues (fair admission — the job goes to the back, still
/// materialized), anything else finalizes. A fresh entry materializes
/// its session state here, on the worker, right before running — the
/// recycle cache is warmest and the memory it builds is about to be
/// touched. Shutdown while requeueing completes the job as cancelled.
fn run_job_slice(inner: &SchedInner, queued: Queued) {
    let mut job = match queued {
        Queued::Fresh(pending) => Box::new(pending.materialize(inner)),
        Queued::Slice(job) => job,
    };
    job.queue_wait += job.enqueued.elapsed().as_secs_f64();
    let occupancy = inner.busy.load(Ordering::Relaxed) as f64 / inner.workers.max(1) as f64;
    match job.slice(inner.quantum, occupancy) {
        ChaseOutcome::Deadline => {
            job.enqueued = Instant::now();
            let mut board = inner.board.lock().unwrap_or_else(|e| e.into_inner());
            if board.shutdown {
                drop(board);
                job.finalize(ChaseOutcome::Cancelled, inner);
                return;
            }
            // No wake: the requeuing thread (worker or draining
            // caller) loops straight back to the board, and if it
            // defers instead, whatever holds its lane notifies on
            // release — same invariant as `Scheduler::submit`.
            board.jobs.push_back(Queued::Slice(job));
        }
        outcome => job.finalize(outcome, inner),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::chase;
    use nuchase_model::parse_program;

    fn config(threads: usize) -> ChaseConfig {
        ChaseConfig {
            threads,
            record_provenance: true,
            build_forest: true,
            ..Default::default()
        }
    }

    #[test]
    fn submitted_job_matches_blocking_chase() {
        let p = parse_program(
            "e(a, b).\ne(b, c).\ne(c, d).\ne(X, Y), e(Y, Z) -> e(X, Z).\ne(X, Y) -> p(X, W).",
        )
        .unwrap();
        let reference = chase(&p.database, &p.tgds, &config(0));
        let program = PreparedProgram::compile(p.tgds);
        let engine = crate::Engine::from_config(&config(2));
        let handle = engine.submit(&program, &p.database);
        let result = handle.wait();
        assert_eq!(result.outcome, ChaseOutcome::Terminated);
        assert!(result.instance.indexed_eq(&reference.instance));
        assert_eq!(result.nulls.len(), reference.nulls.len());
        assert_eq!(result.stats.rounds, reference.stats.rounds);
    }

    #[test]
    fn submit_works_on_sequential_engines() {
        // threads == 0 engines have no eager scheduler; submit must
        // lazily spin up a single-worker one.
        let p = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let reference = chase(&p.database, &p.tgds, &config(0));
        let program = PreparedProgram::compile(p.tgds);
        let engine = crate::Engine::from_config(&config(0));
        let handle = engine.submit(&program, &p.database);
        let result = handle.wait();
        assert!(result.instance.indexed_eq(&reference.instance));
    }

    #[test]
    fn many_jobs_interleave_and_all_complete() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let mut cfg = config(2);
        cfg.budget = crate::chase::ChaseBudget::atoms(300);
        let program = PreparedProgram::compile(p.tgds);
        let engine = crate::Engine::from_config(&cfg);
        let reference = engine.chase(&program, &p.database);
        assert_eq!(reference.outcome, ChaseOutcome::AtomLimit);
        let handles: Vec<_> = (0..16)
            .map(|_| engine.submit(&program, &p.database))
            .collect();
        for handle in handles {
            let r = handle.wait();
            assert_eq!(r.outcome, ChaseOutcome::AtomLimit);
            assert!(r.instance.indexed_eq(&reference.instance));
            assert_eq!(r.nulls.len(), reference.nulls.len());
        }
    }

    #[test]
    fn job_cancellation_completes_with_cancelled() {
        // An unbounded chase: cancel instead of waiting forever.
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = crate::Engine::from_config(&config(2));
        let handle = engine.submit(&program, &p.database);
        handle.cancel();
        let result = handle.wait();
        assert_eq!(result.outcome, ChaseOutcome::Cancelled);
    }

    #[test]
    fn dropping_the_engine_cancels_queued_jobs() {
        let p = parse_program("r(a, b).\nr(X, Y) -> r(Y, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = crate::Engine::from_config(&config(2));
        let handles: Vec<_> = (0..8)
            .map(|_| engine.submit(&program, &p.database))
            .collect();
        drop(engine);
        for handle in handles {
            // Every handle resolves: cancelled (drained from the queue)
            // — never a hang.
            let r = handle.wait();
            assert_eq!(r.outcome, ChaseOutcome::Cancelled);
        }
    }

    #[test]
    fn job_stats_report_queue_wait() {
        let p = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let program = PreparedProgram::compile(p.tgds);
        let engine = crate::Engine::from_config(&config(2));
        let result = engine.submit(&program, &p.database).wait();
        assert!(result.stats.sched_wait_secs > 0.0, "queue wait measured");
    }

    #[test]
    fn wait_all_returns_results_in_handle_order() {
        let p = parse_program("e(a, b).\ne(b, c).\ne(X, Y), e(Y, Z) -> e(X, Z).").unwrap();
        let reference = chase(&p.database, &p.tgds, &config(0));
        let program = PreparedProgram::compile(p.tgds);
        for threads in [1, 2] {
            let engine = crate::Engine::from_config(&config(threads));
            let shared = Arc::new(p.database.clone());
            let handles: Vec<_> = (0..24)
                .map(|_| engine.submit_shared(&program, &shared))
                .collect();
            let results = JobHandle::wait_all(handles);
            assert_eq!(results.len(), 24);
            for r in &results {
                assert_eq!(r.outcome, ChaseOutcome::Terminated);
                assert!(r.instance.indexed_eq(&reference.instance));
            }
        }
    }

    #[test]
    fn wait_each_streams_every_index_once_in_order() {
        let p = parse_program("r(a, b).\nr(X, Y) -> s(X, Z).").unwrap();
        let reference = chase(&p.database, &p.tgds, &config(0));
        let program = PreparedProgram::compile(p.tgds);
        let engine = crate::Engine::from_config(&config(2));
        let handles: Vec<_> = (0..16)
            .map(|_| engine.submit(&program, &p.database))
            .collect();
        let mut seen = Vec::new();
        JobHandle::wait_each(handles, |i, r| {
            assert!(r.instance.indexed_eq(&reference.instance));
            seen.push(i);
        });
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
    }
}
