//! The engine's typed failure surface and fault-injection arming.
//!
//! Re-exports the deterministic injection machinery from
//! [`nuchase_model::fault`] (the sites in `model::chunk` / `model::hash`
//! live there because the dependency points the other way) and owns the
//! engine-level pieces:
//!
//! * [`ChaseError`] — the typed error carried by
//!   [`ChaseOutcome::Failed`](crate::ChaseOutcome::Failed), built from a
//!   caught panic payload at the engine's two `catch_unwind` layers
//!   (every run of the round loop — a session run or a scheduler job
//!   slice, so a panicking submitted job fails only itself — and each
//!   drainer's shared unit bodies);
//! * plan resolution — a programmatic
//!   [`ChaseConfig::fault_plan`](crate::ChaseConfig::fault_plan) wins,
//!   else the `NUCHASE_FAULT_PLAN` environment knob
//!   (`site:nth[:panic][,..]`, parsed via [`FaultPlan::parse`]);
//! * the RAII `ArmGuard` the session wraps around each run so the
//!   process-global sites are disarmed again no matter how the run
//!   exits.
//!
//! # The crash-consistency contract
//!
//! Under any injected fault, a chase either **completes
//! byte-identically** to the fault-free run (degradation sites:
//! spill-mapping failures fall back to heap chunks, transient errors are
//! retried) or **fails cleanly**: the run returns
//! `ChaseOutcome::Failed(ChaseError::Injected { .. })` and the session
//! is rolled back to the last round boundary — clearing the plan and
//! resuming completes byte-identically to a run that never faulted.
//! Pinned by `tests/fault_injection.rs`.
//!
//! Panics that are *not* injected faults (payloads other than
//! [`InjectedFault`]) are genuine bugs: the session still fails only
//! itself (the engine and its worker pool survive, and
//! `stats()`/`telemetry()` stay readable), but it transitions to a
//! poisoned state whose every further run refuses with
//! [`ChaseError::Poisoned`].

pub use nuchase_model::fault::{check, trip, FaultCounters, FaultPlan, FaultSite, InjectedFault};

use crate::chase::ChaseConfig;

/// Why a chase run failed — the payload of
/// [`ChaseOutcome::Failed`](crate::ChaseOutcome::Failed).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChaseError {
    /// A deterministic fault-injection site fired (the `hit`-th hit of
    /// `site`, 0-based). The session rolled back to the last round
    /// boundary; disarming the plan and resuming completes
    /// byte-identically to a fault-free run.
    Injected {
        /// The injection site that fired.
        site: FaultSite,
        /// The 0-based hit index at which it fired.
        hit: u64,
    },
    /// A worker task or the round loop panicked with a non-injected
    /// payload — a genuine bug. The session is poisoned (further runs
    /// refuse), but the engine, its worker pool, and the session's
    /// `stats()`/`telemetry()` survive.
    Panic {
        /// The panic message (string payloads verbatim; other payload
        /// types summarized).
        message: String,
    },
    /// The session was already poisoned by an earlier [`ChaseError::Panic`]
    /// failure; this run refused to start.
    Poisoned,
}

impl ChaseError {
    /// Builds the typed error from a payload caught by `catch_unwind`:
    /// an [`InjectedFault`] maps to [`ChaseError::Injected`], anything
    /// else to [`ChaseError::Panic`].
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> ChaseError {
        if let Some(fault) = payload.downcast_ref::<InjectedFault>() {
            ChaseError::Injected {
                site: fault.site,
                hit: fault.hit,
            }
        } else if let Some(s) = payload.downcast_ref::<&str>() {
            ChaseError::Panic {
                message: (*s).to_string(),
            }
        } else if let Some(s) = payload.downcast_ref::<String>() {
            ChaseError::Panic { message: s.clone() }
        } else {
            ChaseError::Panic {
                message: "non-string panic payload".to_string(),
            }
        }
    }

    /// Is this a deterministic injected fault (resumable after
    /// rollback), as opposed to a genuine panic or a poisoned session?
    pub fn is_injected(&self) -> bool {
        matches!(self, ChaseError::Injected { .. })
    }
}

impl std::fmt::Display for ChaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaseError::Injected { site, hit } => {
                write!(f, "injected fault at site `{site}` (hit {hit})")
            }
            ChaseError::Panic { message } => write!(f, "worker panic: {message}"),
            ChaseError::Poisoned => {
                write!(
                    f,
                    "session poisoned by an earlier panic; start a new session"
                )
            }
        }
    }
}

impl std::error::Error for ChaseError {}

/// Resolves the effective fault plan for a run: an explicit non-empty
/// [`ChaseConfig::fault_plan`] wins; otherwise `NUCHASE_FAULT_PLAN` is
/// parsed (malformed values warn to stderr once and disarm).
pub(crate) fn resolved_plan(config: &ChaseConfig) -> FaultPlan {
    if !config.fault_plan.is_empty() {
        return config.fault_plan;
    }
    match crate::config::env_str("NUCHASE_FAULT_PLAN") {
        Some(text) => match FaultPlan::parse(&text) {
            Ok(plan) => plan,
            Err(why) => {
                crate::config::warn_once(
                    "NUCHASE_FAULT_PLAN",
                    &text,
                    &format!("site:nth[:panic][,..] — {why}"),
                );
                FaultPlan::none()
            }
        },
        None => FaultPlan::none(),
    }
}

/// RAII guard that arms the process-global injection sites for one run
/// and disarms them on drop — including a drop during unwinding, so an
/// injected fault can't leave the sites armed for the next session.
pub(crate) struct ArmGuard {
    armed: bool,
}

impl ArmGuard {
    /// Arms `plan` (a no-op guard for the empty plan — the common case
    /// costs nothing).
    pub(crate) fn arm(plan: &FaultPlan) -> ArmGuard {
        if plan.is_empty() {
            return ArmGuard { armed: false };
        }
        nuchase_model::fault::arm(plan);
        ArmGuard { armed: true }
    }
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        if self.armed {
            nuchase_model::fault::disarm();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_panic_distinguishes_injected_faults() {
        let payload: Box<dyn std::any::Any + Send> = Box::new(InjectedFault {
            site: FaultSite::Commit,
            hit: 3,
        });
        assert_eq!(
            ChaseError::from_panic(payload.as_ref()),
            ChaseError::Injected {
                site: FaultSite::Commit,
                hit: 3
            }
        );
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        let err = ChaseError::from_panic(payload.as_ref());
        assert_eq!(
            err,
            ChaseError::Panic {
                message: "boom".to_string()
            }
        );
        assert!(!err.is_injected());
        assert!(err.to_string().contains("boom"));
    }
}
