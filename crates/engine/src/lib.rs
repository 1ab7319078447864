//! # nuchase-engine
//!
//! Chase engines for the `nuchase` workspace — the reproduction of
//! *“Non-Uniformly Terminating Chase: Size and Complexity”* (Calautti,
//! Gottlob, Pieris; PODS 2022).
//!
//! The centrepiece is the **semi-oblivious chase** of §3: triggers
//! `(σ, h)` fire at most once per `(σ, h|fr(σ))`, and the invented nulls
//! `⊥^z_{σ, h|fr(σ)}` are interned by provenance ([`nulls::NullStore`]),
//! which makes `chase(D, Σ)` a canonical, derivation-independent set.
//! Oblivious and restricted variants are provided as baselines.
//!
//! The engine tracks per-null **depth** (Definition 4.3) and can record
//! the **guarded chase forest** of §5 ([`forest::Forest`]), enabling the
//! paper's size-bound experiments.
//!
//! Each chase round splits into a read-only **enumerate** phase and a
//! deterministic **apply** phase ([`phase`]). Every chase runs one
//! round loop ([`session`]) at every thread count;
//! [`ChaseConfig::threads`] decides only who drains a wide round's
//! enumerate units and resolve ranges — the calling thread alone, or
//! together with the scheduler's helpers ([`sched`]) — and results are
//! byte-identical either way.
//!
//! The public engine surface is the prepared-program API ([`session`]):
//! compile a TGD set once into a [`PreparedProgram`], build an
//! [`Engine`] (persistent worker pool, recycled buffers), and drive
//! [`ChaseSession`]s — budgeted runs, incremental `add_atoms`/`resume`,
//! cancellation and deadlines. The free function [`chase()`] is a
//! one-shot shortcut over the same engine.
//!
//! Many sessions multiplex over one engine without serializing: the
//! shared scheduler ([`sched`]) lets concurrent runs share the worker
//! pool phase-by-phase, and [`Engine::submit`] queues whole chases as
//! non-blocking jobs ([`JobHandle`]) sliced fairly across tenants.
//!
//! Run observability lives in [`telemetry`]: per-rule attribution
//! tables, a bounded per-round event ring, memory accounting in
//! [`ChaseStats`], and JSONL / chrome://tracing exports — off by
//! default and byte-identical at every [`TelemetryLevel`].
//!
//! Failures are isolated, typed events ([`fault`]): worker panics and
//! injected faults fail only their session
//! ([`ChaseOutcome::Failed`]), resource exhaustion degrades gracefully
//! (spill fallback, resumable [`ChaseOutcome::MemoryLimit`]), and the
//! deterministic injection sites ([`fault::FaultSite`]) make the
//! crash-consistency contract testable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod chase;
pub mod config;
pub mod dedup;
pub mod fault;
pub mod forest;
pub mod nulls;
#[cfg(test)]
mod parallel;
pub mod phase;
pub mod provenance;
pub mod sched;
pub mod session;
pub mod telemetry;

pub use baseline::{baseline_semi_oblivious_chase, BaselineResult};
pub use chase::{
    chase, semi_oblivious_chase, ApplyPath, BatchEnum, ChaseBudget, ChaseConfig, ChaseOutcome,
    ChaseResult, ChaseStats, ChaseVariant, ProbeFlow,
};
pub use dedup::TermTupleSet;
pub use fault::{ChaseError, FaultPlan, FaultSite};
pub use forest::Forest;
pub use nulls::{NullKey, NullStore};
pub use provenance::{explain, Derivation, Explanation, Provenance};
pub use sched::{auto_threads, JobHandle};
pub use session::{ChaseSession, Engine, EngineBuilder, PreparedProgram, RunLimits};
pub use telemetry::{RoundEvent, RoundPath, RuleTelemetry, TelemetryLevel, TelemetrySnapshot};
