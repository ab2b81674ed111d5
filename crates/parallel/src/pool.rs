//! A persistent worker pool: threads are spawned once and reused across
//! `run()` calls.
//!
//! The paper's Phase 2 pipeline assumes *resident* execution units — GPU
//! blocks that are already scheduled when chunks start flowing. The seed
//! CPU mapping instead paid a full `std::thread::scope` spawn/join plus a
//! bounded-channel handshake on every call, which dominates small and
//! medium runs and caps steady-state throughput. This pool keeps the
//! workers parked on a condvar between calls:
//!
//! - [`WorkerPool::new`] spawns `width - 1` OS threads (the thread that
//!   calls [`WorkerPool::run`] participates as worker 0, so `width == 1`
//!   spawns nothing and runs jobs inline). Spawn failures degrade
//!   gracefully: the pool keeps the workers that did spawn, [`width`]
//!   shrinks accordingly, and the missing workers are retried lazily on
//!   every later submission.
//! - [`WorkerPool::run`] publishes one type-erased job, wakes the workers,
//!   executes the job on the calling thread too, and blocks until every
//!   worker has finished. Job submission is serialized internally, so a
//!   pool shared by several runners is safe (calls queue up). A stream
//!   or a service shard, whose caller must not block, calls it from a
//!   thread of its own ([`Drain::launch`](crate::Drain::launch)).
//! - Work distribution inside a job is the callers' business; the runner
//!   uses an atomic ticket counter over chunk indices, which preserves the
//!   in-order claiming the decoupled look-back progress argument needs
//!   (a chunk is only claimed after every earlier chunk has been claimed).
//!
//! # Idle pools
//!
//! A runner that owns its pool gets it from `WorkerPool::lease` and
//! hands it back through `WorkerPool::release` when it drops: the
//! runners' private `Pipeline` and [`BatchRunner`](crate::BatchRunner).
//! Released pools wait, parked, on one process-wide idle list keyed by
//! width, and `lease` takes one of the asked width before it spawns a
//! new pool. A caller that builds a fresh runner per request — a
//! selective-scan request brings fresh gates — so pays for spawning and
//! joining threads only in its first two requests. The list keeps at most
//! two pools of each width; a released pool past that bound drops, and
//! joins its workers, as a pool always did. Never listed:
//!
//! - a pool handed to a runner by its owner (the batch runner's cached
//!   intra-row runner, a test's degraded pool): the owner decides;
//! - a pool anything else still holds when its runner drops, such as an
//!   open [`RowStream`](crate::RowStream), which drops it in the end;
//! - a pool below its full width (a spawn failed and no run has healed
//!   it yet).
//!
//! A listed pool is idle and unshared by construction, so concurrent
//! runners never share a busy pool. Pools of `plr-service` shards are
//! built directly and never listed. A pool whose run panicked is listed
//! like any other: workers are fail-stop, and a job's panic leaves them
//! ready for the next run.
//!
//! # Run control: cancellation and deadlines
//!
//! [`WorkerPool::run_ctl`] extends `run` with a [`RunControl`]: a
//! caller-held [`CancelToken`] aborts the run from outside, and a
//! wall-clock deadline bounds it. Both are causes the run's
//! [`AbortSignal`] holds and checks on every poll, so the run's
//! cooperative loops — ticket claims, solve slices, spin waits — see a
//! cancel or an expired deadline at their next poll and bail out, and the
//! run returns [`RunError::Cancelled`] or [`RunError::DeadlineExceeded`]
//! instead of hanging on a wedged stage or an OS-starved worker. No
//! thread pushes either cause into the run: every abort shows up at an
//! abort check.
//!
//! # Failure model
//!
//! Every job invocation — on the spawned workers *and* on the calling
//! thread — runs under `catch_unwind`. The first panic is recorded, the
//! per-run [`AbortSignal`] (passed to every job invocation) is tripped so
//! cooperative loops and spin waits can bail out, and [`WorkerPool::run`]
//! returns `Err(`[`WorkerPanic`]`)` once every worker has quiesced.
//! Workers are fail-stop: a job never makes a worker leave its loop, and
//! a real thread death (a stack overflow, a panic while panicking) ends
//! the process. The pool stays fully reusable after any failure.
//!
//! **Precedence.** When several abort causes coincide, a recorded panic
//! always wins (it is the root-cause evidence); otherwise the *first*
//! cause decides between [`RunError::Cancelled`] and
//! [`RunError::DeadlineExceeded`]. A token remembers when it was first
//! cancelled, so a poll that finds both a cancelled token and a passed
//! deadline records whichever came first, and [`AbortSignal`] keeps only
//! the first recorded reason. A job-level abort (e.g. the runner's
//! finiteness check) trips the generic [`AbortReason::WorkerFault`] after
//! recording any cancel or deadline that has already happened; the pool
//! does *not* convert a bare `WorkerFault` into an error — the job's
//! caller owns that diagnosis. Once the job returns, the run polls its
//! signal one last time, so a cancel or deadline that came before the
//! return is still reported.
//!
//! [`width`]: WorkerPool::width
//!
//! # Safety
//!
//! `run` erases the job closure's lifetime to park it in shared state the
//! worker threads can reach. This is sound because of an unwind-ordering
//! invariant: **no exit path of `run` — including the caller's own closure
//! invocation panicking — returns or resumes an unwind before every clone
//! of the erased closure has been dropped.** Concretely:
//!
//! - each worker drops its clone *before* reporting completion, and the
//!   decrement that reports completion sits in a drop guard, so it happens
//!   even if the panic-recording machinery itself unwinds;
//! - the calling thread invokes its clone under `catch_unwind`, and on a
//!   caller-side panic it trips the abort signal and still *waits for
//!   `running` to reach zero* before converting the panic into an error —
//!   the caller's stack frame (which the closure borrows) cannot be torn
//!   down while any worker may still hold a clone;
//! - the shared job slot is cleared under the lock before `run` returns.
//!
//! Together these guarantee the closure (and everything it borrows from
//! the caller's stack) never outlives the `run` call, on the success path
//! and on every failure path. Cancellation and deadlines do not weaken
//! the invariant: they only make the abort signal's polls report an
//! abort, which *requests* early bail-out; the submitter still waits for
//! every worker before returning.

use crate::stats::PoolCounters;
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::task::Context;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning.
///
/// With every job invocation wrapped in `catch_unwind`, a poisoned pool
/// mutex can only mean a panic in the tiny bookkeeping sections below —
/// whose state is valid at every intermediate point — so recovering the
/// guard is always sound and keeps one panic from masquerading as a
/// second, unrelated one.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Resolves a configured thread count: `0` means the `PLR_THREADS`
/// environment variable when it is set to a positive integer, otherwise
/// one worker per available CPU (falling back to 4 when the CPU count is
/// unknown).
///
/// The env override is what lets CI pin the whole `plr-parallel` suite to
/// a thread-count matrix (`PLR_THREADS=1,2,4`) without touching every
/// test, and lets a deployment size the pool without recompiling.
///
/// Shared by [`crate::ParallelRunner`] and [`crate::BatchRunner`] so the
/// two fallbacks cannot drift.
pub fn resolve_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    if let Some(n) = std::env::var("PLR_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Why a run's [`AbortSignal`] was tripped. Only the *first* trip is
/// recorded; later causes are ignored (see the module docs on
/// precedence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A worker panicked, or a job-level check failed (e.g. the runner's
    /// finiteness validation). The pool reports panics as
    /// [`RunError::Panicked`]; job-level faults are the job owner's to
    /// diagnose.
    WorkerFault,
    /// A caller-held [`CancelToken`] was cancelled.
    Cancelled,
    /// A poll found the run past its deadline.
    DeadlineExceeded,
}

impl AbortReason {
    fn code(self) -> u8 {
        match self {
            AbortReason::WorkerFault => 1,
            AbortReason::Cancelled => 2,
            AbortReason::DeadlineExceeded => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => None,
            1 => Some(AbortReason::WorkerFault),
            2 => Some(AbortReason::Cancelled),
            3 => Some(AbortReason::DeadlineExceeded),
            _ => unreachable!("invalid abort code {code}"),
        }
    }
}

/// Per-run cooperative cancellation flag, passed to every job invocation.
///
/// A signal carries the outside causes of the run or row it belongs to:
/// its deadline and its cancel tokens (at most two — the run's, or a
/// row's plus its drain run's). Every poll of
/// [`is_aborted`](Self::is_aborted) checks them, so nothing has to push a
/// cancel or an expired deadline into the run. The pool trips the signal
/// when a worker panics, and jobs may trip it themselves (e.g. the
/// runner's finiteness check). Ticket loops, solve slices and spin waits
/// poll it and bail out promptly — that is what turns a panicking worker
/// into a clean error instead of a hang in the decoupled look-back
/// pipeline.
///
/// [`AbortSignal::default`] has no outside causes: only a trip aborts it.
#[derive(Debug, Default)]
pub struct AbortSignal {
    /// The first recorded [`AbortReason`]'s code; 0 while live.
    reason: AtomicU8,
    deadline: Option<Instant>,
    tokens: [Option<CancelToken>; 2],
}

impl AbortSignal {
    /// Whether this run has been aborted. Once a reason is recorded this
    /// is one relaxed load; before, the signal also checks its tokens and
    /// reads the clock only if it has a deadline — cheap enough for
    /// per-chunk and per-spin polling.
    #[inline]
    pub fn is_aborted(&self) -> bool {
        self.reason.load(Ordering::Relaxed) != 0 || self.observe()
    }

    /// Trips the abort flag with [`AbortReason::WorkerFault`]; every
    /// cooperating loop in the current run will bail out at its next poll.
    /// A cancel or deadline that has already happened is recorded first,
    /// so it keeps its precedence over this later fault.
    pub fn trigger(&self) {
        self.observe();
        self.trip(AbortReason::WorkerFault);
    }

    /// Records the first reason; later trips (whatever their reason) are
    /// no-ops.
    fn trip(&self, reason: AbortReason) {
        let _ =
            self.reason
                .compare_exchange(0, reason.code(), Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Records an outside cause that has already happened — a cancelled
    /// token or a passed deadline, whichever came first — and reports
    /// whether there was one.
    fn observe(&self) -> bool {
        let cancelled = self
            .tokens
            .iter()
            .flatten()
            .filter_map(CancelToken::cancelled_at)
            .min();
        let reason = match (cancelled, self.deadline) {
            (Some(at), Some(deadline)) if deadline <= at => AbortReason::DeadlineExceeded,
            (Some(_), _) => AbortReason::Cancelled,
            (None, Some(deadline)) if Instant::now() >= deadline => AbortReason::DeadlineExceeded,
            _ => return false,
        };
        self.trip(reason);
        true
    }

    /// The first recorded abort reason, or `None` while the run is live.
    pub fn reason(&self) -> Option<AbortReason> {
        AbortReason::from_code(self.reason.load(Ordering::Relaxed))
    }
}

/// A caller-held handle that cancels runs from outside the pool.
///
/// Clone it freely; all clones share one flag. [`cancel`](Self::cancel)
/// is sticky: every run observing the token sees it at its next abort
/// poll (so even spin-waiting workers bail within one poll interval),
/// and every *future* run handed the token fails fast with
/// [`RunError::Cancelled`] before doing any work.
///
/// ```
/// use plr_parallel::CancelToken;
///
/// let token = CancelToken::new();
/// let clone = token.clone();
/// assert!(!token.is_cancelled());
/// clone.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// When the first [`cancel`](Self::cancel) happened; polls compare it
    /// with a deadline to record whichever came first. The cell publishes
    /// the instant with release ordering and polls read it with acquire;
    /// the instant is the only data a cancel publishes.
    cancelled_at: Arc<OnceLock<Instant>>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled_at.get().is_some()
    }

    /// Cancels every in-flight run observing this token and all future
    /// runs using it. Idempotent.
    pub fn cancel(&self) {
        self.cancelled_at.get_or_init(Instant::now);
    }

    fn cancelled_at(&self) -> Option<Instant> {
        self.cancelled_at.get().copied()
    }
}

/// Per-run control: an optional caller-held [`CancelToken`] and an
/// optional wall-clock deadline, resolved to an absolute instant when the
/// control is built (so everything run under one control spends one
/// budget).
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    pub(crate) cancel: Option<CancelToken>,
    pub(crate) deadline: Option<(Instant, Duration)>,
}

impl RunControl {
    /// An empty control: no cancellation, no deadline — behaviorally
    /// identical to [`WorkerPool::run`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes `token` for the run's duration (a clone is stored; cancel
    /// any clone to abort).
    #[must_use]
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Bounds the run's wall time: `budget` from *now* (the moment this
    /// method is called, not the moment the run starts).
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some((Instant::now() + budget, budget));
        self
    }

    /// Whether the linked token (if any) has been cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Fails fast when the control is already cancelled or past its
    /// deadline, naming whichever came first as the run's abort signal
    /// would; used by the pool before starting a run and by the per-row
    /// executor before each row.
    pub fn status(&self) -> Result<(), RunError> {
        let cancelled = self.cancel.as_ref().and_then(CancelToken::cancelled_at);
        match (cancelled, self.deadline) {
            (Some(at), Some((deadline, budget))) if deadline <= at => {
                Err(RunError::DeadlineExceeded { deadline: budget })
            }
            (Some(_), _) => Err(RunError::Cancelled),
            (None, Some((deadline, budget))) if Instant::now() >= deadline => {
                Err(RunError::DeadlineExceeded { deadline: budget })
            }
            _ => Ok(()),
        }
    }

    /// A fresh abort signal for one run or row under this control: it
    /// observes the control's token and deadline, plus `outer`, the token
    /// of the drain run a row executes on. A fresh signal per run sees
    /// only these, so a stale token can never abort an unrelated run.
    pub(crate) fn signal(&self, outer: Option<&CancelToken>) -> AbortSignal {
        AbortSignal {
            reason: AtomicU8::new(0),
            deadline: self.deadline.map(|(at, _)| at),
            tokens: [self.cancel.clone(), outer.cloned()],
        }
    }

    /// How a run or row under this control ended once its job returned:
    /// `abort` is polled once more, so a cancel or deadline that came
    /// before the return still counts. A bare
    /// [`AbortReason::WorkerFault`] is the job owner's to diagnose, not
    /// an error here.
    pub(crate) fn outcome(&self, abort: &AbortSignal) -> Result<(), RunError> {
        abort.observe();
        match abort.reason() {
            Some(AbortReason::Cancelled) => Err(RunError::Cancelled),
            Some(AbortReason::DeadlineExceeded) => Err(RunError::DeadlineExceeded {
                deadline: self.deadline.map(|(_, b)| b).unwrap_or_default(),
            }),
            Some(AbortReason::WorkerFault) | None => Ok(()),
        }
    }
}

/// The first panic captured during a [`WorkerPool::run`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Id of the worker whose job invocation panicked (`0` is the calling
    /// thread).
    pub worker: usize,
    /// The panic payload, stringified.
    pub payload: String,
}

impl WorkerPanic {
    /// Builds a `WorkerPanic` from a caught panic payload (used by every
    /// layer that wraps job execution in `catch_unwind`).
    pub(crate) fn from_payload(worker: usize, payload: &(dyn Any + Send)) -> Self {
        let payload = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        WorkerPanic { worker, payload }
    }

    /// Converts into the engine-level error the runners surface.
    pub fn into_engine_error(self) -> plr_core::error::EngineError {
        plr_core::error::EngineError::WorkerPanicked {
            worker: self.worker,
            payload: self.payload,
        }
    }
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker {} panicked: {}", self.worker, self.payload)
    }
}

impl std::error::Error for WorkerPanic {}

/// How a controlled run failed (see [`WorkerPool::run_ctl`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A worker (or the calling thread acting as worker 0) panicked.
    Panicked(WorkerPanic),
    /// The run was aborted through its [`CancelToken`].
    Cancelled,
    /// The run outlived its deadline: a poll of its abort signal found the
    /// deadline passed.
    DeadlineExceeded {
        /// The wall-clock budget that was exceeded.
        deadline: Duration,
    },
}

impl RunError {
    /// Converts into the engine-level error the runners surface.
    pub fn into_engine_error(self) -> plr_core::error::EngineError {
        match self {
            RunError::Panicked(p) => p.into_engine_error(),
            RunError::Cancelled => plr_core::error::EngineError::Cancelled,
            RunError::DeadlineExceeded { deadline } => {
                plr_core::error::EngineError::DeadlineExceeded { deadline }
            }
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panicked(p) => p.fmt(f),
            RunError::Cancelled => write!(f, "run cancelled by the caller"),
            RunError::DeadlineExceeded { deadline } => {
                write!(f, "run exceeded its deadline of {deadline:?}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// The type-erased job executed by every worker; the arguments are the
/// worker id in `0..width` and the run's abort signal.
type Job = BorrowedJob<'static>;

/// [`Job`] before its lifetime is erased in [`WorkerPool::run`].
type BorrowedJob<'a> = Arc<dyn Fn(usize, &AbortSignal) + Send + Sync + 'a>;

struct PoolState {
    /// The current job, present only while a generation is in flight.
    job: Option<Job>,
    /// The current run's abort signal (a fresh one per submission, built
    /// from that run's control alone).
    abort: Arc<AbortSignal>,
    /// Bumped once per submitted job so a worker never runs one twice.
    generation: u64,
    /// Spawned workers still executing the current job.
    running: usize,
    /// Spawned workers; each stays in its loop until shutdown.
    alive: usize,
    /// First panic captured in the current generation.
    panic: Option<WorkerPanic>,
    /// Set by `Drop` to retire the workers.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signals workers that a new job (or shutdown) is available.
    work_ready: Condvar,
    /// Signals the submitter that `running` reached zero.
    work_done: Condvar,
    /// Cumulative count of failed spawns that a later submission retried
    /// successfully; see [`WorkerPool::recovered_workers`].
    recovered: AtomicU64,
    /// Cumulative run-outcome counters; see [`WorkerPool::counters`].
    runs: AtomicU64,
    panicked_runs: AtomicU64,
    cancelled_runs: AtomicU64,
    deadlined_runs: AtomicU64,
}

impl Shared {
    /// Records the first panic of the current generation and trips the
    /// run's abort signal so the surviving workers bail out of their
    /// loops.
    fn record_panic(&self, worker: usize, payload: &(dyn Any + Send)) {
        let mut state = lock_recover(&self.state);
        state.abort.trigger();
        if state.panic.is_none() {
            state.panic = Some(WorkerPanic::from_payload(worker, payload));
        }
    }
}

/// Per-worker slots; index `i` holds the handle for worker id `i + 1`
/// (`None` while that worker could not be spawned). Doubles as the
/// submission lock: holding it serializes `run` calls.
struct Workers {
    handles: Vec<Option<JoinHandle<()>>>,
}

/// A fixed-width pool of persistent worker threads (see the module docs).
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// The width the pool was built for; [`width`](Self::width) is below
    /// it while a spawn has failed.
    full_width: usize,
    workers: Mutex<Workers>,
    /// Test hook ([`new_degraded`](Self::new_degraded)): while set, `heal`
    /// does not retry missing slots, so the zero-worker serial path stays
    /// observable across submissions.
    inhibit_respawn: AtomicBool,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width())
            .finish()
    }
}

/// Pools whose runner dropped, waiting for the next runner of their
/// width (`WorkerPool::lease`, `WorkerPool::release`).
static IDLE: Mutex<Vec<Arc<WorkerPool>>> = Mutex::new(Vec::new());

/// The most idle pools the process keeps of one width. A caller that
/// builds each request's runner before it drops the last one holds one
/// pool while it hands the other back, so two pools serve such a stream.
const IDLE_PER_WIDTH: usize = 2;

#[cfg(test)]
thread_local! {
    /// Worker threads this thread has spawned, for the idle-list tests.
    pub(crate) static SPAWNED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn spawn_worker(shared: &Arc<Shared>, id: usize) -> std::io::Result<JoinHandle<()>> {
    #[cfg(test)]
    SPAWNED.with(|n| n.set(n.get() + 1));
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("plr-worker-{id}"))
        .spawn(move || worker_loop(&shared, id))
}

impl WorkerPool {
    /// Creates a pool of total width `width` (the calling thread counts as
    /// one worker, so `width - 1` threads are spawned).
    ///
    /// Thread-spawn failures are not fatal: the pool keeps whatever did
    /// spawn (worst case only the calling thread), [`width`](Self::width)
    /// reports the effective count, and the missing workers are retried on
    /// every later [`run`](Self::run) submission.
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                abort: Arc::new(AbortSignal::default()),
                generation: 0,
                running: 0,
                alive: 0,
                panic: None,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
            recovered: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            panicked_runs: AtomicU64::new(0),
            cancelled_runs: AtomicU64::new(0),
            deadlined_runs: AtomicU64::new(0),
        });
        let handles: Vec<Option<JoinHandle<()>>> = (1..width)
            .map(|id| spawn_worker(&shared, id).ok())
            .collect();
        lock_recover(&shared.state).alive = handles.iter().flatten().count();
        WorkerPool {
            shared,
            full_width: width,
            workers: Mutex::new(Workers { handles }),
            inhibit_respawn: AtomicBool::new(false),
        }
    }

    /// A pool of `width` for a runner of its own: an idle pool of that
    /// width when the process has one, else a new one. Hand it back with
    /// [`release`](Self::release) when the runner drops.
    pub(crate) fn lease(width: usize) -> Arc<WorkerPool> {
        let width = width.max(1);
        let idle = {
            let mut list = lock_recover(&IDLE);
            let at = list.iter().rposition(|p| p.full_width == width);
            at.map(|i| list.swap_remove(i))
        };
        idle.unwrap_or_else(|| Arc::new(WorkerPool::new(width)))
    }

    /// Hands back a pool from [`lease`](Self::lease) when its runner
    /// drops. The pool joins the idle list only when nothing else holds
    /// it (a stream or anything else), it has its full width, and the
    /// list has fewer than two pools of that width; otherwise it drops
    /// here, joining its workers.
    pub(crate) fn release(mut pool: Arc<WorkerPool>) {
        if Arc::get_mut(&mut pool).is_none() || pool.width() < pool.full_width {
            return;
        }
        let mut list = lock_recover(&IDLE);
        let width = pool.full_width;
        if list.iter().filter(|p| p.full_width == width).count() < IDLE_PER_WIDTH {
            list.push(pool);
        }
        // An unlisted `pool` drops after the lock is released.
    }

    /// How many idle pools of `width` the process keeps now.
    #[cfg(test)]
    pub(crate) fn idle(width: usize) -> usize {
        lock_recover(&IDLE)
            .iter()
            .filter(|p| p.full_width == width)
            .count()
    }

    /// For the tests that read the idle list: keeps them apart from each
    /// other and returns a width whose idle pools only they touch, with
    /// none listed. The width is odd and above twice the resolved default
    /// (the `PLR_THREADS` leg); every other test in this crate runs its
    /// pools at 1, 2, 4 or 8 workers or at that default, so no test
    /// running alongside takes or lists a pool of this width.
    #[cfg(test)]
    pub(crate) fn idle_test_width() -> (MutexGuard<'static, ()>, usize) {
        static SERIAL: Mutex<()> = Mutex::new(());
        let guard = lock_recover(&SERIAL);
        let width = 2 * resolve_threads(0) + 1;
        let mine: Vec<Arc<WorkerPool>> = {
            let mut list = lock_recover(&IDLE);
            let (mine, rest) = std::mem::take(&mut *list)
                .into_iter()
                .partition(|p| p.full_width == width);
            *list = rest;
            mine
        };
        drop(mine);
        (guard, width)
    }

    /// Test-only constructor simulating total spawn failure at
    /// construction: a pool of nominal width `width` with **zero** live
    /// spawned workers, exactly the state [`new`](Self::new) leaves behind
    /// when every `thread::spawn` fails. Runs degrade to the
    /// caller-as-worker-0 serial path until a later submission's heal pass
    /// spawns the missing workers.
    #[doc(hidden)]
    pub fn new_degraded(width: usize) -> Self {
        let width = width.max(1);
        let mut pool = Self::new(1);
        // Record the missing workers as never-spawned slots so `heal` can
        // retry them, mirroring the spawn-failure bookkeeping in `new`.
        lock_recover(&pool.workers)
            .handles
            .extend((1..width).map(|_| None));
        pool.full_width = width;
        pool.inhibit_respawn.store(true, Ordering::Relaxed);
        pool
    }

    /// Lifts the [`new_degraded`](Self::new_degraded) respawn inhibition:
    /// the next submission's heal pass retries the missing workers.
    #[doc(hidden)]
    pub fn allow_respawn(&self) {
        self.inhibit_respawn.store(false, Ordering::Relaxed);
    }

    /// Effective worker count, including the thread that calls
    /// [`run`](Self::run) (spawned workers plus one). Narrower than
    /// requested while a spawn has failed; grows back when a later
    /// submission's retry succeeds.
    pub fn width(&self) -> usize {
        lock_recover(&self.shared.state).alive + 1
    }

    /// Cumulative number of worker spawns that failed (at construction or
    /// at an earlier retry) and succeeded when a later submission retried
    /// them.
    pub fn recovered_workers(&self) -> u64 {
        self.shared.recovered.load(Ordering::Relaxed)
    }

    /// Cumulative run-outcome counters for this pool: total runs and how
    /// many ended panicked, cancelled, or past their deadline.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            runs: self.shared.runs.load(Ordering::Relaxed),
            panicked: self.shared.panicked_runs.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled_runs.load(Ordering::Relaxed),
            deadline_exceeded: self.shared.deadlined_runs.load(Ordering::Relaxed),
            workers_recovered: self.recovered_workers(),
        }
    }

    fn note_outcome(&self, result: &Result<(), RunError>) {
        self.shared.runs.fetch_add(1, Ordering::Relaxed);
        let counter = match result {
            Ok(()) => return,
            Err(RunError::Panicked(_)) => &self.shared.panicked_runs,
            Err(RunError::Cancelled) => &self.shared.cancelled_runs,
            Err(RunError::DeadlineExceeded { .. }) => &self.shared.deadlined_runs,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Retries every slot whose spawn failed; called at each submission
    /// with the submission lock held.
    fn heal(&self, workers: &mut Workers) {
        if self.inhibit_respawn.load(Ordering::Relaxed) {
            return;
        }
        for (i, slot) in workers.handles.iter_mut().enumerate() {
            if slot.is_none() {
                if let Ok(handle) = spawn_worker(&self.shared, i + 1) {
                    *slot = Some(handle);
                    lock_recover(&self.shared.state).alive += 1;
                    self.shared.recovered.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Runs `job(worker_id, abort)` on every worker — ids `1..width` on
    /// the pool threads, id `0` on the calling thread — returning once all
    /// have finished.
    ///
    /// # Errors
    ///
    /// Returns the first [`WorkerPanic`] when any invocation (including
    /// the calling thread's) panicked. The run's [`AbortSignal`] is
    /// tripped as soon as the panic is caught so cooperative loops bail
    /// out; `run` still waits for every worker to finish before returning
    /// (see the module-level safety discussion), and the pool remains
    /// reusable afterwards.
    pub fn run<F>(&self, job: F) -> Result<(), WorkerPanic>
    where
        F: Fn(usize, &AbortSignal) + Send + Sync,
    {
        match self.run_ctl(&RunControl::new(), job) {
            Ok(()) => Ok(()),
            Err(RunError::Panicked(p)) => Err(p),
            Err(other) => unreachable!("uncontrolled run cannot fail with {other:?}"),
        }
    }

    /// Like [`run`](Self::run), but observing a [`RunControl`]: the run
    /// can be cancelled from outside through a [`CancelToken`] and is
    /// bounded by the control's deadline. Both reach the job through its
    /// [`AbortSignal`], so a wedged stage or an OS-starved worker that
    /// polls converts into an error instead of a hang.
    ///
    /// # Errors
    ///
    /// [`RunError::Panicked`] as for [`run`](Self::run);
    /// [`RunError::Cancelled`] when the token was (or became) cancelled;
    /// [`RunError::DeadlineExceeded`] when the deadline expired before
    /// the run finished. A panic takes precedence over both; otherwise
    /// the first cause wins. On every error path the submitter still
    /// waits for all workers to quiesce before returning, and the pool
    /// stays reusable.
    pub fn run_ctl<F>(&self, ctl: &RunControl, job: F) -> Result<(), RunError>
    where
        F: Fn(usize, &AbortSignal) + Send + Sync,
    {
        self.run_sized(ctl, |_| job)
    }

    /// [`run_ctl`](Self::run_ctl) with the job built for the run's width:
    /// the number of workers that execute it, the calling thread
    /// included. [`width`](Self::width) read before the call can differ,
    /// because the run first retries failed spawns.
    pub(crate) fn run_sized<F>(
        &self,
        ctl: &RunControl,
        job: impl FnOnce(usize) -> F,
    ) -> Result<(), RunError>
    where
        F: Fn(usize, &AbortSignal) + Send + Sync,
    {
        let mut workers = lock_recover(&self.workers);
        self.heal(&mut workers);
        if let Err(e) = ctl.status() {
            // Fail fast: cancelled or expired before any work started.
            self.note_outcome(&Err(e.clone()));
            return Err(e);
        }
        let abort = Arc::new(ctl.signal(None));
        let live = lock_recover(&self.shared.state).alive;
        let job = job(live + 1);

        let result = if live == 0 {
            // No spawned workers: run inline. Panics still become errors
            // so callers see one failure surface regardless of width.
            match catch_unwind(AssertUnwindSafe(|| job(0, &abort))) {
                Ok(()) => Ok(()),
                Err(payload) => Err(RunError::Panicked(WorkerPanic::from_payload(
                    0,
                    payload.as_ref(),
                ))),
            }
        } else {
            self.run_on_workers(live, &abort, job)
        };
        let result = result.and_then(|()| ctl.outcome(&abort));
        self.note_outcome(&result);
        result
    }

    /// The erased-lifetime fan-out on the spawned workers plus the
    /// calling thread (see the module-level safety discussion).
    fn run_on_workers<F>(
        &self,
        live: usize,
        abort: &Arc<AbortSignal>,
        job: F,
    ) -> Result<(), RunError>
    where
        F: Fn(usize, &AbortSignal) + Send + Sync,
    {
        // SAFETY: see the module docs — every clone of the erased Arc is
        // dropped before this function returns on every exit path
        // (including panics), so the closure's borrows stay within this
        // frame.
        let erased: BorrowedJob<'_> = Arc::new(job);
        let erased: Job = unsafe { std::mem::transmute(erased) };
        {
            let mut state = lock_recover(&self.shared.state);
            debug_assert!(state.job.is_none() && state.running == 0);
            state.job = Some(Arc::clone(&erased));
            state.abort = Arc::clone(abort);
            state.generation += 1;
            state.running = live;
            state.panic = None;
            self.shared.work_ready.notify_all();
        }
        let caller = catch_unwind(AssertUnwindSafe(|| erased(0, abort)));
        if caller.is_err() {
            // Workers may be spinning on carries this thread will never
            // publish; make them bail before we wait on them.
            abort.trigger();
        }
        drop(erased);
        let mut state = lock_recover(&self.shared.state);
        while state.running > 0 {
            state = self
                .shared
                .work_done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        let worker_panic = state.panic.take();
        drop(state);
        // All clones are dead; only now is it safe to surface any panic.
        match caller {
            Err(payload) => Err(RunError::Panicked(WorkerPanic::from_payload(
                0,
                payload.as_ref(),
            ))),
            Ok(()) => match worker_panic {
                Some(p) => Err(RunError::Panicked(p)),
                None => Ok(()),
            },
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock_recover(&self.shared.state);
            state.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        // A thread never joins itself (that would deadlock, and panics in
        // std); a pool thread releasing the last handle is left to exit
        // on its own once it sees `shutdown`.
        let me = std::thread::current().id();
        let mut workers = lock_recover(&self.workers);
        for handle in workers.handles.iter_mut().filter_map(Option::take) {
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// A first-completion-wins result cell shared by a handle and whoever
/// resolves it: the one completion cell behind the streaming layer's
/// [`RowHandle`](crate::RowHandle) and the service core's handles. Waiters block on it (optionally with a bound), one
/// waker callback fires when it resolves, and the owner can move the
/// value out.
pub(crate) struct Completion<V> {
    state: Mutex<CompletionState<V>>,
    done: Condvar,
}

struct CompletionState<V> {
    value: Option<V>,
    waker: Option<Box<dyn FnOnce() + Send>>,
}

impl<V> Completion<V> {
    pub(crate) fn new() -> Self {
        Completion {
            state: Mutex::new(CompletionState {
                value: None,
                waker: None,
            }),
            done: Condvar::new(),
        }
    }

    /// Publishes `value`, wakes blocked waiters, and fires the waker
    /// outside the lock. The first completion wins; later ones are
    /// ignored. A panicking waker is contained here, after the panic hook
    /// has reported it: the cell has resolved, and the thread resolving
    /// it — a drain run's worker, or an inline caller — must go on.
    pub(crate) fn complete(&self, value: V) {
        let waker = {
            let mut state = lock_recover(&self.state);
            if state.value.is_some() {
                return;
            }
            state.value = Some(value);
            self.done.notify_all();
            state.waker.take()
        };
        if let Some(wake) = waker {
            let _ = catch_unwind(AssertUnwindSafe(wake));
        }
    }

    pub(crate) fn is_complete(&self) -> bool {
        lock_recover(&self.state).value.is_some()
    }

    /// Blocks until the cell resolves, then reads its value.
    pub(crate) fn wait<R>(&self, read: impl FnOnce(&V) -> R) -> R {
        read(self.resolved().value.as_ref().expect("resolved"))
    }

    /// [`wait`](Self::wait) for at most `budget` (spurious wakeups re-wait
    /// for the remainder); `None` if the cell is still unresolved then.
    pub(crate) fn wait_timeout<R>(
        &self,
        budget: Duration,
        read: impl FnOnce(&V) -> R,
    ) -> Option<R> {
        let (state, _) = self
            .done
            .wait_timeout_while(lock_recover(&self.state), budget, |s| s.value.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        state.value.as_ref().map(read)
    }

    /// Blocks until the cell resolves, then moves the value out.
    pub(crate) fn take(&self) -> V {
        self.resolved().value.take().expect("resolved")
    }

    fn resolved(&self) -> MutexGuard<'_, CompletionState<V>> {
        self.done
            .wait_while(lock_recover(&self.state), |s| s.value.is_none())
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether the cell has resolved; if not, `cx`'s waker is registered
    /// (replacing any earlier one) to fire when it does.
    pub(crate) fn poll_ready(&self, cx: &Context<'_>) -> bool {
        let mut state = lock_recover(&self.state);
        if state.value.is_none() {
            let waker = cx.waker().clone();
            state.waker = Some(Box::new(move || waker.wake()));
        }
        state.value.is_some()
    }

    /// Registers a callback invoked exactly once when the cell resolves
    /// (immediately if it already has). A second registration replaces
    /// the first.
    pub(crate) fn on_complete(&self, wake: impl FnOnce() + Send + 'static) {
        let mut state = lock_recover(&self.state);
        if state.value.is_some() {
            drop(state);
            wake();
        } else {
            state.waker = Some(Box::new(wake));
        }
    }
}

/// Drop guard that reports one worker's completion: decrements `running`
/// (waking the submitter at zero) even if the code between its creation
/// and its drop unwinds.
struct CompletionGuard<'a> {
    shared: &'a Shared,
}

impl Drop for CompletionGuard<'_> {
    fn drop(&mut self) {
        let mut state = lock_recover(&self.shared.state);
        state.running -= 1;
        if state.running == 0 {
            self.shared.work_done.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared, id: usize) {
    let mut seen_generation = 0u64;
    loop {
        let (job, abort) = {
            let mut state = lock_recover(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation {
                    if let Some(job) = &state.job {
                        seen_generation = state.generation;
                        break (Arc::clone(job), Arc::clone(&state.abort));
                    }
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let guard = CompletionGuard { shared };
        let outcome = catch_unwind(AssertUnwindSafe(|| job(id, &abort)));
        // The clone must die before completion is reported: `run` treats
        // `running == 0` as "no live borrows of the caller's stack".
        drop(job);
        if let Err(payload) = outcome {
            // Record before the guard's decrement so the submitter sees
            // the panic the moment `running` hits zero.
            shared.record_panic(id, payload.as_ref());
        }
        drop(guard);
    }
}

/// A `Send + Sync` wrapper for a raw base pointer, so pool jobs can carve
/// disjoint `&mut` chunks out of one buffer by ticket index.
///
/// The field is private on purpose: closures must capture the wrapper
/// itself (not the raw pointer, which edition-2021 disjoint capture would
/// otherwise grab field-by-field, losing the `Send + Sync` impls).
#[derive(Clone, Copy)]
pub(crate) struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    pub(crate) fn new(ptr: *mut T) -> Self {
        SendPtr(ptr)
    }

    pub(crate) fn ptr(self) -> *mut T {
        self.0
    }
}

// SAFETY: the wrapper only moves the pointer between threads; callers are
// responsible for deriving disjoint slices from it (the ticket counter
// guarantees each chunk index is claimed exactly once).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// An atomic take-a-number dispenser over `0..limit`; claims are strictly
/// increasing, which is what keeps the look-back pipeline deadlock-free.
pub(crate) struct Tickets {
    next: AtomicUsize,
    limit: usize,
}

impl Tickets {
    pub(crate) fn new(limit: usize) -> Self {
        Tickets {
            next: AtomicUsize::new(0),
            limit,
        }
    }

    /// Claims the next index, or `None` when all are taken.
    pub(crate) fn claim(&self) -> Option<usize> {
        let t = self.next.fetch_add(1, Ordering::Relaxed);
        (t < self.limit).then_some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Silences the default panic-hook output for the injected panics
    /// these tests provoke on purpose (real failures still print).
    fn quiet_expected_panics() {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| {
            let default = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let payload = info.payload();
                let s = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("");
                if !s.contains("deliberate") {
                    default(info);
                }
            }));
        });
    }

    #[test]
    fn resolve_threads_passes_nonzero_through() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn all_workers_run_the_job_once() {
        let pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        let ids = Mutex::new(Vec::new());
        pool.run(|id, _abort| {
            hits.fetch_add(1, Ordering::Relaxed);
            ids.lock().unwrap().push(id);
        })
        .unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 4);
        let mut ids = ids.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn repeated_runs_reuse_the_same_threads() {
        let pool = WorkerPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(|_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    #[test]
    fn width_one_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.width(), 1);
        let mut hit = false;
        let hit_ref = std::sync::Mutex::new(&mut hit);
        pool.run(|id, _abort| {
            assert_eq!(id, 0);
            **hit_ref.lock().unwrap() = true;
        })
        .unwrap();
        assert!(hit);
    }

    #[test]
    fn jobs_may_borrow_the_callers_stack() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0u64; 1024];
        let base = SendPtr::new(data.as_mut_ptr());
        let tickets = Tickets::new(16);
        pool.run(|_, _| {
            while let Some(t) = tickets.claim() {
                // SAFETY: tickets are unique, so the 64-element chunks are
                // disjoint.
                let chunk = unsafe { std::slice::from_raw_parts_mut(base.ptr().add(t * 64), 64) };
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (t * 64 + i) as u64;
                }
            }
        })
        .unwrap();
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn tickets_are_exhaustive_and_unique() {
        let pool = WorkerPool::new(8);
        let tickets = Tickets::new(1000);
        let seen: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(|_, _| {
            while let Some(t) = tickets.claim() {
                seen[t].fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
        assert!(seen.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn dropping_the_pool_joins_cleanly() {
        let pool = WorkerPool::new(4);
        pool.run(|_, _| {}).unwrap();
        drop(pool);
    }

    #[test]
    fn worker_panic_returns_err_and_pool_survives() {
        quiet_expected_panics();
        let pool = WorkerPool::new(4);
        for round in 0..3 {
            let tickets = Tickets::new(64);
            let err = pool
                .run(|_, _| {
                    while let Some(t) = tickets.claim() {
                        if t == 13 {
                            panic!("deliberate pool test panic {round}");
                        }
                    }
                })
                .unwrap_err();
            assert!(err.payload.contains("deliberate"), "{err}");
            // A fault-free run on the same pool must still work.
            let hits = AtomicU64::new(0);
            pool.run(|_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
            assert_eq!(hits.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn caller_panic_waits_for_workers_then_errors() {
        quiet_expected_panics();
        let pool = WorkerPool::new(4);
        // The job borrows this stack buffer; worker 0 (the caller) panics
        // while spawned workers are still writing through the pointer. The
        // unwind-ordering invariant says `run` must not return before they
        // finish — otherwise these writes would be use-after-free.
        let mut data = vec![0u64; 4096];
        let base = SendPtr::new(data.as_mut_ptr());
        let tickets = Tickets::new(64);
        let err = pool
            .run(|id, _abort| {
                if id == 0 {
                    panic!("deliberate caller panic");
                }
                while let Some(t) = tickets.claim() {
                    // SAFETY: unique tickets, disjoint 64-element chunks.
                    let chunk =
                        unsafe { std::slice::from_raw_parts_mut(base.ptr().add(t * 64), 64) };
                    for v in chunk.iter_mut() {
                        *v = 7;
                    }
                    std::thread::yield_now();
                }
            })
            .unwrap_err();
        assert_eq!(err.worker, 0);
        assert!(err.payload.contains("deliberate caller panic"));
        // Every chunk was either fully written or untouched — and the
        // buffer is still valid to read, which is the point.
        assert!(data.chunks(64).all(|c| c.iter().all(|&v| v == 7 || v == 0)));
        // The pool is reusable after a caller-side panic.
        pool.run(|_, _| {}).unwrap();
    }

    #[test]
    fn inline_pool_converts_panics_to_errors() {
        quiet_expected_panics();
        let pool = WorkerPool::new(1);
        let err = pool
            .run(|_, _| panic!("deliberate inline panic"))
            .unwrap_err();
        assert_eq!(err.worker, 0);
        assert!(err.payload.contains("deliberate inline panic"));
        pool.run(|_, _| {}).unwrap();
    }

    #[test]
    fn panic_trips_the_abort_signal_for_other_workers() {
        quiet_expected_panics();
        let pool = WorkerPool::new(4);
        let bailed = AtomicU64::new(0);
        let err = pool
            .run(|id, abort| {
                if id == 1 {
                    panic!("deliberate abort-signal panic");
                }
                // Everyone else waits for the abort instead of spinning
                // forever — the cooperative protocol under test.
                while !abort.is_aborted() {
                    std::thread::yield_now();
                }
                bailed.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert!(err.payload.contains("abort-signal"));
        assert_eq!(bailed.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn first_panic_wins() {
        quiet_expected_panics();
        let pool = WorkerPool::new(4);
        let err = pool
            .run(|id, _abort| {
                if id != 0 {
                    panic!("deliberate panic from worker {id}");
                }
            })
            .unwrap_err();
        assert_ne!(err.worker, 0);
        assert!(err.payload.contains("deliberate panic from worker"));
        pool.run(|_, _| {}).unwrap();
    }

    // ------------------------------------------------------------------
    // Run control: cancellation and deadlines.
    // ------------------------------------------------------------------

    #[test]
    fn pre_cancelled_token_fails_fast() {
        let pool = WorkerPool::new(4);
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicU64::new(0);
        let err = pool
            .run_ctl(&RunControl::new().with_cancel(&token), |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert_eq!(err, RunError::Cancelled);
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no work may start");
        assert_eq!(pool.counters().cancelled, 1);
        pool.run(|_, _| {}).unwrap();
    }

    #[test]
    fn cancel_token_aborts_a_running_job() {
        let pool = WorkerPool::new(4);
        let token = CancelToken::new();
        let bailed = AtomicU64::new(0);
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                token.cancel();
            })
        };
        // Every worker loops until the abort lands: the run can only end
        // through the token, which makes the test deterministic.
        let err = pool
            .run_ctl(&RunControl::new().with_cancel(&token), |_, abort| {
                while !abort.is_aborted() {
                    std::thread::yield_now();
                }
                bailed.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err, RunError::Cancelled);
        assert_eq!(bailed.load(Ordering::Relaxed), 4);
        assert_eq!(pool.counters().cancelled, 1);
        // The pool (and later runs with a fresh token) are unaffected.
        pool.run_ctl(
            &RunControl::new().with_cancel(&CancelToken::new()),
            |_, _| {},
        )
        .unwrap();
    }

    #[test]
    fn cancel_works_on_an_inline_pool() {
        let pool = WorkerPool::new(1);
        let token = CancelToken::new();
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                token.cancel();
            })
        };
        let err = pool
            .run_ctl(&RunControl::new().with_cancel(&token), |_, abort| {
                while !abort.is_aborted() {
                    std::thread::yield_now();
                }
            })
            .unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err, RunError::Cancelled);
    }

    #[test]
    fn deadline_converts_a_wedged_run_into_an_error() {
        let pool = WorkerPool::new(4);
        let budget = Duration::from_millis(50);
        let start = Instant::now();
        // The job only ever exits through the abort flag — without the
        // signal's deadline poll this run would hang forever.
        let err = pool
            .run_ctl(&RunControl::new().with_deadline(budget), |_, abort| {
                while !abort.is_aborted() {
                    std::thread::yield_now();
                }
            })
            .unwrap_err();
        assert_eq!(err, RunError::DeadlineExceeded { deadline: budget });
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "watchdog must fire near the deadline, not hang"
        );
        assert_eq!(pool.counters().deadline_exceeded, 1);
        pool.run(|_, _| {}).unwrap();
    }

    #[test]
    fn expired_deadline_fails_fast() {
        let pool = WorkerPool::new(2);
        let ran = AtomicU64::new(0);
        let err = pool
            .run_ctl(&RunControl::new().with_deadline(Duration::ZERO), |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        assert!(matches!(err, RunError::DeadlineExceeded { .. }), "{err:?}");
        assert_eq!(ran.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fast_runs_beat_their_deadline() {
        let pool = WorkerPool::new(4);
        for _ in 0..20 {
            pool.run_ctl(
                &RunControl::new().with_deadline(Duration::from_secs(30)),
                |_, _| {},
            )
            .unwrap();
        }
        assert_eq!(pool.counters().deadline_exceeded, 0);
        assert_eq!(pool.counters().runs, 20);
    }

    #[test]
    fn panic_takes_precedence_over_cancellation() {
        quiet_expected_panics();
        let pool = WorkerPool::new(4);
        let token = CancelToken::new();
        let job_token = token.clone();
        // Worker 0 cancels the run; worker 1 *then* panics (after
        // observing the abort, so both causes are definitely present).
        let err = pool
            .run_ctl(&RunControl::new().with_cancel(&token), move |id, abort| {
                if id == 0 {
                    job_token.cancel();
                }
                while !abort.is_aborted() {
                    std::thread::yield_now();
                }
                if id == 1 {
                    panic!("deliberate panic after cancel");
                }
            })
            .unwrap_err();
        match err {
            RunError::Panicked(p) => assert!(p.payload.contains("deliberate"), "{p}"),
            other => panic!("panic must outrank cancellation, got {other:?}"),
        }
        pool.run(|_, _| {}).unwrap();
    }

    #[test]
    fn stale_token_does_not_abort_later_runs() {
        let pool = WorkerPool::new(4);
        let token = CancelToken::new();
        pool.run_ctl(&RunControl::new().with_cancel(&token), |_, _| {})
            .unwrap();
        // Cancelling after the linked run finished must not touch an
        // unrelated follow-up run that uses no token.
        token.cancel();
        let bailed = AtomicU64::new(0);
        pool.run(|_, abort| {
            if abort.is_aborted() {
                bailed.fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
        assert_eq!(bailed.load(Ordering::Relaxed), 0);
    }

    /// Each signal polls its own deadline, so any number of concurrent
    /// deadlines (one per streamed row with a deadline) stay independent:
    /// the earliest trips first, a signal whose holder finished before
    /// its deadline never trips, and a later deadline still trips.
    #[test]
    fn signals_trip_on_their_own_deadlines() {
        let signal = |ms| {
            RunControl::new()
                .with_deadline(Duration::from_millis(ms))
                .signal(None)
        };
        let (early, late, finished) = (signal(30), signal(120), signal(60));
        // The finished holder's last poll, before its deadline.
        assert!(!finished.is_aborted());
        let deadline = Instant::now() + Duration::from_secs(20);
        while !early.is_aborted() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(early.reason(), Some(AbortReason::DeadlineExceeded));
        assert_eq!(finished.reason(), None, "a finished signal must not trip");
        while !late.is_aborted() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(late.reason(), Some(AbortReason::DeadlineExceeded));
        assert_eq!(finished.reason(), None);
    }

    /// A cancel and a deadline that both happen before any worker polls:
    /// whichever came first decides the run's error. Each leg reads the
    /// order its run recorded — the token's cancel instant against the
    /// control's deadline — and expects the earlier cause's error, so no
    /// leg depends on how long a sleep takes. The deadline-first leg
    /// cancels only once the deadline has passed, so its order holds by
    /// program order. A canceller starved past the 30 ms deadline turns
    /// the cancel-first leg into a checked deadline-first case.
    #[test]
    fn earlier_of_cancel_and_deadline_wins() {
        let pool = WorkerPool::new(2);
        // Runs one race; returns whether the deadline came first.
        let race = |budget: Duration, deadline_first: bool| {
            let token = CancelToken::new();
            let ctl = RunControl::new().with_cancel(&token).with_deadline(budget);
            let (deadline, _) = ctl.deadline.expect("a deadline was set");
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    if deadline_first {
                        while Instant::now() <= deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    } else {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    token.cancel();
                })
            };
            let result = pool.run_ctl(&ctl, |_, abort| {
                // Sleep past both causes without polling, then spin.
                while !token.is_cancelled() || Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                while !abort.is_aborted() {
                    std::thread::yield_now();
                }
            });
            canceller.join().unwrap();
            let cancelled = token.cancelled_at().expect("the canceller ran");
            let expect = if deadline <= cancelled {
                RunError::DeadlineExceeded { deadline: budget }
            } else {
                RunError::Cancelled
            };
            assert_eq!(result, Err(expect), "budget {budget:?}");
            deadline <= cancelled
        };
        race(Duration::from_millis(30), false);
        assert!(
            race(Duration::from_millis(10), true),
            "this leg cancels after its deadline"
        );
    }

    #[test]
    fn counters_track_panics() {
        quiet_expected_panics();
        let pool = WorkerPool::new(2);
        let _ = pool.run(|_, _| panic!("deliberate counter panic"));
        pool.run(|_, _| {}).unwrap();
        let c = pool.counters();
        assert_eq!(c.runs, 2);
        assert_eq!(c.panicked, 1);
        assert_eq!(c.cancelled, 0);
        assert_eq!(c.deadline_exceeded, 0);
    }
}
