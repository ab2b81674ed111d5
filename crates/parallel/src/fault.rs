//! Deterministic fault injection for the parallel execution layer
//! (compiled only with the `fault-inject` cargo feature).
//!
//! The decoupled look-back liveness argument rests on every execution
//! unit eventually publishing its carries; this harness lets tests fail
//! or stall any stage of the pipeline on purpose — a specific chunk, a
//! specific worker, or the K-th consultation — and assert that the pool
//! converts a panic into [`EngineError::WorkerPanicked`] instead of
//! hanging, and that it stays reusable afterwards. It simulates no
//! thread death: workers are fail-stop, and a real one ends the process.
//!
//! A process-global, one-shot [`FaultPlan`] is armed with [`arm`] and
//! consulted by the instrumented sites in the runner and batch executor
//! via [`check`]. When no plan is armed, `check` is a single mutex lock
//! and an early return — inert by construction (the tier-1 proptest
//! suites run under this feature in CI to prove it). The plan disarms
//! itself the moment it fires, so the very next run on the same pool is
//! fault-free.
//!
//! [`EngineError::WorkerPanicked`]: plr_core::error::EngineError::WorkerPanicked

use crate::pool::{lock_recover, AbortSignal};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which instrumented pipeline stage a plan targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Just before a chunk's (or batch row's) local solve.
    Solve,
    /// Just before a chunk's variable look-back resolution (chunk 0,
    /// fused chunks and reset chunks with nothing to correct skip it).
    Lookback,
    /// At the top of each per-row dispatch: the long-rows path of
    /// [`BatchRunner::run_rows`] (cached intra-row runner; worker id 0,
    /// row index as `chunk`) and each row the per-row executor runs, a
    /// [`RowStream`]'s or a service shard's (solving worker's id, row
    /// index as `chunk`, the *per-row* abort signal — so a Delay here
    /// ends early once that row, or its stream or shard, is aborted).
    ///
    /// [`BatchRunner::run_rows`]: crate::BatchRunner::run_rows
    /// [`RowStream`]: crate::RowStream
    Row,
}

/// What happens when a plan fires.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// Panic with a recognizable message; the pool catches it and the run
    /// returns [`EngineError::WorkerPanicked`].
    ///
    /// [`EngineError::WorkerPanicked`]: plr_core::error::EngineError::WorkerPanicked
    Panic,
    /// Sleep instead of failing — stalls one pipeline stage so tests can
    /// drive successors into their spin-wait paths, or wedge a run long
    /// enough for cancellation/deadline machinery to fire.
    ///
    /// The sleep is abort-aware: when the instrumented site passes the
    /// run's [`AbortSignal`] to [`check`], the stall ends early (within a
    /// few milliseconds) once the run is aborted — so a delay-wedged
    /// worker still honors the pool's quiesce-before-return invariant
    /// instead of pinning the run for the full planned duration.
    Delay(Duration),
}

/// A one-shot fault: *where* ([`FaultSite`]) plus optional *when* filters.
/// Filters compose conjunctively; `None` means "any". The plan fires the
/// first time every filter matches, then disarms itself.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The instrumented stage to fire at.
    pub site: FaultSite,
    /// Fire only for this worker id (`0` is the calling thread).
    pub worker: Option<usize>,
    /// Fire only for this chunk index (row index on the batch path).
    pub chunk: Option<usize>,
    /// Fire only on the K-th (1-based) consultation that passes the other
    /// filters — "call K" targeting for sites a worker hits repeatedly.
    pub nth_call: Option<u64>,
    /// What to do when the plan fires.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// A panic at `site` on chunk `chunk`, any worker, first consultation.
    pub fn panic_at_chunk(site: FaultSite, chunk: usize) -> Self {
        FaultPlan {
            site,
            worker: None,
            chunk: Some(chunk),
            nth_call: None,
            kind: FaultKind::Panic,
        }
    }

    /// A panic at `site` the first time worker `worker` consults it.
    pub fn panic_at_worker(site: FaultSite, worker: usize) -> Self {
        FaultPlan {
            site,
            worker: Some(worker),
            chunk: None,
            nth_call: None,
            kind: FaultKind::Panic,
        }
    }

    /// A panic at `site` on the K-th (1-based) consultation by any worker.
    pub fn panic_at_call(site: FaultSite, k: u64) -> Self {
        FaultPlan {
            site,
            worker: None,
            chunk: None,
            nth_call: Some(k),
            kind: FaultKind::Panic,
        }
    }

    /// A stall of `delay` at `site` on chunk `chunk` (spin-path coverage).
    pub fn delay_at_chunk(site: FaultSite, chunk: usize, delay: Duration) -> Self {
        FaultPlan {
            kind: FaultKind::Delay(delay),
            ..Self::panic_at_chunk(site, chunk)
        }
    }
}

struct Armed {
    plan: FaultPlan,
    /// Consultations that passed the worker/chunk filters so far.
    matching_calls: u64,
}

static PLAN: Mutex<Option<Armed>> = Mutex::new(None);

/// Arms `plan` process-wide, replacing any previously armed plan. Tests
/// sharing a process must serialize around arming (the plan is global).
pub fn arm(plan: FaultPlan) {
    *lock_recover(&PLAN) = Some(Armed {
        plan,
        matching_calls: 0,
    });
}

/// Disarms any armed plan (idempotent). Fired plans disarm themselves.
pub fn disarm() {
    *lock_recover(&PLAN) = None;
}

/// Whether a plan is currently armed (i.e. has not fired yet).
pub fn is_armed() -> bool {
    lock_recover(&PLAN).is_some()
}

/// Consulted by the instrumented sites; fires (and disarms) the armed
/// plan when every filter matches, otherwise returns immediately.
///
/// `abort` is the consulting run's abort signal, when the site has one:
/// a firing [`FaultKind::Delay`] polls it so an injected stall ends
/// early once the run is cancelled, deadline-tripped, or panicking
/// elsewhere. Pass `None` at sites outside any run (the long-rows path's
/// per-row dispatch on the calling thread).
///
/// # Panics
///
/// On purpose, when a [`FaultKind::Panic`] plan fires — that is the
/// injected fault.
pub fn check(site: FaultSite, worker: usize, chunk: usize, abort: Option<&AbortSignal>) {
    let kind = {
        let mut guard = lock_recover(&PLAN);
        let Some(armed) = guard.as_mut() else { return };
        if armed.plan.site != site {
            return;
        }
        if armed.plan.worker.is_some_and(|w| w != worker) {
            return;
        }
        if armed.plan.chunk.is_some_and(|c| c != chunk) {
            return;
        }
        armed.matching_calls += 1;
        if armed
            .plan
            .nth_call
            .is_some_and(|k| armed.matching_calls < k)
        {
            return;
        }
        // One-shot: disarm before firing so the pool's recovery path (and
        // any rerun) sees an inert harness.
        guard.take().expect("armed above").plan.kind
    };
    match kind {
        FaultKind::Panic => {
            panic!("injected fault at {site:?} (worker {worker}, chunk {chunk})")
        }
        FaultKind::Delay(d) => {
            // Sleep in short slices so an aborted run reclaims the wedged
            // worker promptly (see `FaultKind::Delay`).
            const SLICE: Duration = Duration::from_millis(2);
            let until = Instant::now() + d;
            loop {
                if abort.is_some_and(AbortSignal::is_aborted) {
                    return;
                }
                let now = Instant::now();
                if now >= until {
                    return;
                }
                std::thread::sleep(SLICE.min(until - now));
            }
        }
    }
}

/// The plan is process-global; the crate's unit tests that arm it hold
/// this lock so they do not interleave.
#[cfg(test)]
pub(crate) static SERIAL: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests for the matching logic run the real `check` but with
    // Delay plans (zero duration), so nothing panics and the global plan
    // contention stays trivial.
    fn delay_plan(site: FaultSite) -> FaultPlan {
        FaultPlan {
            site,
            worker: None,
            chunk: None,
            nth_call: None,
            kind: FaultKind::Delay(Duration::ZERO),
        }
    }

    #[test]
    fn plans_are_one_shot_and_filtered() {
        let _serial = lock_recover(&SERIAL);
        arm(FaultPlan {
            worker: Some(2),
            chunk: Some(5),
            ..delay_plan(FaultSite::Solve)
        });
        check(FaultSite::Lookback, 2, 5, None); // wrong site
        assert!(is_armed());
        check(FaultSite::Solve, 1, 5, None); // wrong worker
        assert!(is_armed());
        check(FaultSite::Solve, 2, 4, None); // wrong chunk
        assert!(is_armed());
        check(FaultSite::Solve, 2, 5, None); // fires
        assert!(!is_armed());
        check(FaultSite::Solve, 2, 5, None); // inert after firing
        disarm();
    }

    #[test]
    fn nth_call_counts_only_matching_consultations() {
        let _serial = lock_recover(&SERIAL);
        arm(FaultPlan {
            worker: Some(1),
            nth_call: Some(3),
            ..delay_plan(FaultSite::Lookback)
        });
        for _ in 0..10 {
            check(FaultSite::Lookback, 0, 0, None); // filtered out, not counted
        }
        assert!(is_armed());
        check(FaultSite::Lookback, 1, 0, None);
        check(FaultSite::Lookback, 1, 1, None);
        assert!(is_armed(), "two matching calls must not fire a k=3 plan");
        check(FaultSite::Lookback, 1, 2, None);
        assert!(!is_armed());
        disarm();
    }

    #[test]
    fn delay_bails_out_when_the_run_is_already_aborted() {
        let _serial = lock_recover(&SERIAL);
        arm(FaultPlan {
            kind: FaultKind::Delay(Duration::from_secs(120)),
            ..delay_plan(FaultSite::Solve)
        });
        let abort = AbortSignal::default();
        abort.trigger();
        let start = Instant::now();
        check(FaultSite::Solve, 0, 0, Some(&abort));
        // A two-minute stall on an aborted run must return in one slice.
        assert!(start.elapsed() < Duration::from_secs(10));
        assert!(!is_armed());
        disarm();
    }
}
