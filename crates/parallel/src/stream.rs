//! Streamed row submission with per-row completion handles.
//!
//! [`BatchRunner::run_rows`] takes the whole batch at once and blocks —
//! the one remaining all-or-nothing barrier between callers and the
//! pool. This module removes it: [`BatchRunner::stream`] opens a
//! [`RowStream`] that accepts rows one at a time ([`RowStream::push_row`])
//! and solves them concurrently on the same persistent [`WorkerPool`]
//! while the producer keeps generating, so recurrence solving composes as
//! a stage in a larger dataflow instead of a batch barrier.
//!
//! ## Execution model
//!
//! `stream()` launches **one drain run** ([`Drain`]) over the stream's
//! bounded FIFO: one long-lived [`WorkerPool::submit`] run, so the
//! caller's thread is never borrowed, whose workers pop rows and run each
//! through [`RowTask::execute`] — the one per-row executor, which the
//! service core's shards use too, around the solve blocking `run_rows`
//! uses — so a streamed row cannot drift from a blocking or a service
//! row. The service shards' drain runs are the same loop over a
//! weighted-fair queue. The queue admits at most `window` unfinished
//! rows: `push_row` blocks once the window is full, which is the
//! backpressure that stops a fast producer from buffering an unbounded
//! batch.
//!
//! Each pushed row gets a [`RowHandle`]: poll it, block on it (with or
//! without a timeout), register a completion waker, `await` it (the
//! handle implements [`IntoFuture`]), cancel it through its own
//! [`CancelToken`], or bound it with a per-row deadline via
//! [`RowStream::push_row_ctl`] — all reusing the [`RunControl`]
//! machinery: each row's abort signal holds its token and deadline, and
//! the row's solve checks them at every abort poll. Row and run handles
//! share one first-completion-wins completion cell.
//!
//! ## Error & ordering guarantees
//!
//! - A failed row (panic, cancel, deadline) resolves **only its own
//!   handle**; the workers and every other row are unaffected, and the
//!   pool stays usable afterwards.
//! - A worker thread's death ends the stream: its row, the rows still
//!   queued and every later push resolve to
//!   [`EngineError::WorkerPanicked`]. Rows already being solved on other
//!   workers finish normally.
//! - Rows complete in whatever order workers finish them; handles are
//!   the ordering authority, not wall-clock.
//! - [`RowStream::finish`] drains the queue, waits for quiescence, and
//!   surfaces the first per-row error (the aggregate [`RunStats`] counts
//!   every row either way). Dropping the stream instead *cancels*
//!   still-pending rows — their handles resolve to
//!   [`EngineError::Cancelled`] — and quiesces before returning, so no
//!   handle can hang on a dead stream.
//!
//! ## The `Future` adapter
//!
//! [`RowFuture`] / [`RunFuture`] turn a [`RowHandle`] / [`RunHandle`]
//! into a runtime-agnostic `std` future — no executor dependency, no busy
//! polling: `poll` registers the task waker with the handle's completion
//! cell and returns `Pending` exactly until the cell resolves.
//! [`block_on`] is a minimal park-based executor for synchronous callers
//! and tests.
//!
//! [`BatchRunner::run_rows`]: crate::BatchRunner::run_rows
//! [`BatchRunner::stream`]: crate::BatchRunner::stream
//! [`RowTask::execute`]: crate::batch::RowTask::execute

use crate::batch::{absorb_row, RowTask};
use crate::drain::{Drain, DrainQueue};
use crate::pool::{AbortSignal, CancelToken, Completion, RunControl, RunHandle, WorkerPool};
use crate::stats::RunStats;
use plr_core::element::Element;
use plr_core::error::EngineError;
use std::collections::VecDeque;
use std::future::{Future, IntoFuture};
use std::pin::Pin;
use std::sync::{Arc, Condvar, PoisonError};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

/// A non-blocking or bounded-wait push found the backpressure window
/// still full — the `WouldBlock` verdict of [`RowStream::try_push_row`] /
/// [`RowStream::push_row_timeout`]. Carries the row buffer back to the
/// caller untouched, so shedding or retrying costs no copy.
#[derive(Debug)]
pub struct PushError<T> {
    /// The row buffer handed back, exactly as submitted.
    pub data: Vec<T>,
}

impl<T> PushError<T> {
    /// Recovers the row buffer for a retry or for shedding bookkeeping.
    pub fn into_data(self) -> Vec<T> {
        self.data
    }
}

impl<T> std::fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "stream backpressure window full (would block)")
    }
}

impl<T: std::fmt::Debug> std::error::Error for PushError<T> {}

/// One pushed row waiting in the stream's queue.
struct QueuedRow<T> {
    index: usize,
    data: Vec<T>,
    ctl: RunControl,
    resolver: RowResolver<T>,
}

/// Mutable stream state, the queue of [`StreamShared::drain`].
struct StreamState<T> {
    queue: VecDeque<QueuedRow<T>>,
    /// Rows pushed but not yet completed (queued + being solved); the
    /// backpressure window bounds this, not just the queue length.
    in_flight: usize,
    closed: bool,
    /// Set when the underlying run died (abort, worker loss, drop): every
    /// later push fails fast with this error instead of queueing forever.
    dead: Option<EngineError>,
    /// First per-row failure, surfaced by [`RowStream::finish`].
    first_error: Option<EngineError>,
    /// Aggregate over completed rows (successes contribute their phase
    /// times; failures contribute `rows` and `aborts`).
    stats: RunStats,
    next_row: usize,
}

impl<T: Element> DrainQueue for StreamState<T> {
    type Item = QueuedRow<T>;

    fn pop(&mut self) -> Option<QueuedRow<T>> {
        self.queue.pop_front()
    }

    fn is_closed(&self) -> bool {
        self.closed
    }
}

struct StreamShared<T> {
    drain: Drain<StreamState<T>>,
    /// Signalled when a row completes or the stream dies (pushers blocked
    /// on the window wait here, under the drain's lock).
    space: Condvar,
    window: usize,
}

/// A streaming submission channel over a [`BatchRunner`]'s pool — see the
/// [module docs](self) for the execution model and guarantees. Created by
/// [`BatchRunner::stream`] / [`BatchRunner::stream_with_window`].
///
/// Dropping the stream without [`finish`](Self::finish) cancels rows
/// still queued or in flight (their handles resolve to
/// [`EngineError::Cancelled`]) and blocks until the workers quiesce.
///
/// A worker thread's death ends the stream: its row, the rows still
/// queued and every later push resolve to [`EngineError::WorkerPanicked`],
/// and so does [`finish`](Self::finish).
///
/// [`BatchRunner`]: crate::BatchRunner
/// [`BatchRunner::stream`]: crate::BatchRunner::stream
/// [`BatchRunner::stream_with_window`]: crate::BatchRunner::stream_with_window
pub struct RowStream<T> {
    shared: Arc<StreamShared<T>>,
    /// Cancelling this token aborts the whole stream run.
    run_token: CancelToken,
    /// The drain run serving the queue; dropping it (stream drop without
    /// `finish`) cancels and quiesces. `None` when the pool could not
    /// spawn its submit driver, which leaves the stream dead from birth.
    handle: Option<RunHandle>,
    /// Pool width at launch, reported in the aggregate stats.
    threads: u64,
    /// The length every row must have, if the task binds one.
    bound_len: Option<usize>,
}

impl<T> std::fmt::Debug for RowStream<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.drain.lock();
        f.debug_struct("RowStream")
            .field("window", &self.shared.window)
            .field("in_flight", &state.in_flight)
            .field("closed", &state.closed)
            .field("dead", &state.dead.is_some())
            .finish()
    }
}

impl<T: Element> RowStream<T> {
    /// Launches the drain run that serves the row queue. Called by
    /// [`BatchRunner::stream`].
    ///
    /// [`BatchRunner::stream`]: crate::BatchRunner::stream
    pub(crate) fn launch(pool: Arc<WorkerPool>, task: RowTask<T>, window: usize) -> Self {
        let shared = Arc::new(StreamShared {
            drain: Drain::new(StreamState {
                queue: VecDeque::new(),
                in_flight: 0,
                closed: false,
                dead: None,
                first_error: None,
                // One plan consult backs the whole stream; seed the
                // aggregate with its outcome rather than recounting it on
                // every row.
                stats: task.base_stats(0),
                next_row: 0,
            }),
            space: Condvar::new(),
            window,
        });
        let run_token = CancelToken::new();
        let threads = pool.width() as u64;
        let bound_len = task.bound_len();
        let serve = {
            let (shared, run_token) = (Arc::clone(&shared), run_token.clone());
            move |row: QueuedRow<T>, worker, abort: &AbortSignal| {
                let finish = |data, result| finish_row(&shared, row.resolver, data, result);
                task.execute(
                    &run_token, abort, worker, row.index, &row.ctl, row.data, finish,
                );
            }
        };
        let ctl = RunControl::new().with_cancel(&run_token);
        let handle = shared.drain.launch(&pool, ctl, serve);
        // The one sweep, once the run is over (close, cancel or a worker's
        // death): anything still queued will never be popped — complete
        // those handles and unblock pushers, so no handle and no
        // `push_row` can wedge on a finished run. Without a run the
        // stream is dead at once.
        match &handle {
            Some(handle) => {
                let (shared, run_token) = (Arc::clone(&shared), run_token.clone());
                handle.on_complete(move || {
                    let err = if run_token.is_cancelled() {
                        EngineError::Cancelled
                    } else {
                        EngineError::WorkerPanicked {
                            worker: 0,
                            payload: "a worker died; the stream run ended".to_string(),
                        }
                    };
                    drain_pending(&shared, err);
                });
            }
            None => drain_pending(&shared, EngineError::Cancelled),
        }
        RowStream {
            shared,
            run_token,
            handle,
            threads,
            bound_len,
        }
    }

    /// The backpressure window: the maximum number of unfinished rows
    /// (queued or being solved) before `push_row` blocks.
    pub fn window(&self) -> usize {
        self.shared.window
    }

    /// Rows pushed but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.shared.drain.lock().in_flight
    }

    /// Submits one row for solving, taking ownership of its buffer, and
    /// returns a [`RowHandle`] that resolves when the row is done (get
    /// the solved buffer back with [`RowHandle::join`]).
    ///
    /// Blocks while the in-flight window is full — that is the
    /// backpressure contract. Rows of a constant signature may have any
    /// length, including lengths that differ between pushes; a varying
    /// or segmented stream binds every row to its plan's length.
    ///
    /// Pushing onto a closed or dead stream, or pushing a row of the
    /// wrong length, does not block: the returned handle is already
    /// resolved to [`EngineError::Cancelled`] (closed), the stream's
    /// fatal error (dead), or [`EngineError::LengthMismatch`], with the
    /// buffer untouched and nothing queued.
    pub fn push_row(&self, data: Vec<T>) -> RowHandle<T> {
        self.push_row_ctl(data, RunControl::new())
    }

    /// Like [`push_row`](Self::push_row), with a per-row [`RunControl`]:
    /// the row observes its own [`CancelToken`] and/or wall-clock
    /// deadline (both checked at every abort poll of the row's solve),
    /// independently of every other row. A cancelled or expired
    /// row resolves its handle to [`EngineError::Cancelled`] /
    /// [`EngineError::DeadlineExceeded`]; the stream keeps going.
    ///
    /// Note the deadline clock starts when [`RunControl::with_deadline`]
    /// is called — time spent blocked on the window counts against it.
    pub fn push_row_ctl(&self, data: Vec<T>, ctl: RunControl) -> RowHandle<T> {
        match self.push_row_bounded(data, ctl, None) {
            Ok(handle) => handle,
            // Unreachable: an unbounded wait never reports WouldBlock.
            Err(e) => unreachable!("blocking push returned {e}"),
        }
    }

    /// Non-blocking [`push_row`](Self::push_row): enqueues only if the
    /// backpressure window has space *right now*, otherwise hands the
    /// buffer straight back as [`PushError`] without waiting. This is the
    /// admission-controller entry point — a caller that must never wedge
    /// on a saturated stream probes with this and converts the verdict
    /// into its own shed/retry decision.
    ///
    /// Closed and dead streams are not `WouldBlock`: exactly like
    /// [`push_row`](Self::push_row), those return an already-resolved
    /// handle (the stream's state is final, so there is nothing to wait
    /// for).
    pub fn try_push_row(&self, data: Vec<T>) -> Result<RowHandle<T>, PushError<T>> {
        self.push_row_bounded(data, RunControl::new(), Some(Duration::ZERO))
    }

    /// [`try_push_row`](Self::try_push_row) with a per-row [`RunControl`]
    /// (cancel token and/or deadline for the row once admitted).
    pub fn try_push_row_ctl(
        &self,
        data: Vec<T>,
        ctl: RunControl,
    ) -> Result<RowHandle<T>, PushError<T>> {
        self.push_row_bounded(data, ctl, Some(Duration::ZERO))
    }

    /// Bounded-wait [`push_row`](Self::push_row): blocks on the window for
    /// at most `timeout`, then hands the buffer back as [`PushError`] if
    /// space never opened. `Duration::ZERO` is equivalent to
    /// [`try_push_row`](Self::try_push_row).
    pub fn push_row_timeout(
        &self,
        data: Vec<T>,
        timeout: Duration,
    ) -> Result<RowHandle<T>, PushError<T>> {
        self.push_row_bounded(data, RunControl::new(), Some(timeout))
    }

    /// [`push_row_timeout`](Self::push_row_timeout) with a per-row
    /// [`RunControl`].
    pub fn push_row_timeout_ctl(
        &self,
        data: Vec<T>,
        ctl: RunControl,
        timeout: Duration,
    ) -> Result<RowHandle<T>, PushError<T>> {
        self.push_row_bounded(data, ctl, Some(timeout))
    }

    /// The one push implementation: waits on the window forever
    /// (`budget: None`), not at all (`Some(ZERO)`), or up to a timeout.
    fn push_row_bounded(
        &self,
        data: Vec<T>,
        ctl: RunControl,
        budget: Option<Duration>,
    ) -> Result<RowHandle<T>, PushError<T>> {
        let cancel = ctl.cancel.clone().unwrap_or_default();
        let ctl = RunControl {
            cancel: Some(cancel.clone()),
            deadline: ctl.deadline,
        };
        let deadline = budget.map(|b| Instant::now() + b);
        if let Some(expected) = self.bound_len {
            if data.len() != expected {
                let err = EngineError::LengthMismatch {
                    expected,
                    got: data.len(),
                };
                return Ok(RowHandle::resolved(cancel, data, err));
            }
        }
        let mut state = self.shared.drain.lock();
        loop {
            if state.closed {
                drop(state);
                return Ok(RowHandle::resolved(cancel, data, EngineError::Cancelled));
            }
            if let Some(err) = state.dead.clone() {
                drop(state);
                return Ok(RowHandle::resolved(cancel, data, err));
            }
            if state.in_flight < self.shared.window {
                break;
            }
            match deadline {
                None => {
                    state = self
                        .shared
                        .space
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        drop(state);
                        return Err(PushError { data });
                    }
                    state = self
                        .shared
                        .space
                        .wait_timeout(state, at - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
        let index = state.next_row;
        state.next_row += 1;
        state.in_flight += 1;
        let (mut handle, resolver) = RowHandle::pending(cancel, index);
        handle.detached = false; // a pushed row's handle cancels on drop
        state.queue.push_back(QueuedRow {
            index,
            data,
            ctl,
            resolver,
        });
        drop(state);
        self.shared.drain.notify_one();
        Ok(handle)
    }

    /// Aborts the whole stream (idempotent): every queued or in-flight
    /// row resolves to [`EngineError::Cancelled`] and later pushes fail
    /// fast. Workers quiesce within one poll interval; use
    /// [`finish`](Self::finish) to join them.
    pub fn cancel(&self) {
        self.run_token.cancel();
    }

    /// Closes the intake: later pushes resolve immediately to
    /// [`EngineError::Cancelled`], and the workers exit once the queue is
    /// drained. Idempotent; does not block — pair with
    /// [`finish`](Self::finish) (or outstanding [`RowHandle`]s) to wait
    /// for the rows already in flight.
    pub fn close(&self) {
        self.shared.drain.lock().closed = true;
        self.shared.drain.notify_all();
        self.shared.space.notify_all();
    }

    /// Closes the stream, waits for every pushed row to complete, and
    /// returns the aggregate [`RunStats`] — or the first error: a
    /// stream-level failure if the run itself died, otherwise the first
    /// per-row error (including deliberate per-row cancellations and
    /// deadline trips). Per-row outcomes remain available on the
    /// individual handles either way.
    pub fn finish(self) -> Result<RunStats, EngineError> {
        self.close();
        if let Some(Err(e)) = self.handle.as_ref().map(RunHandle::wait) {
            return Err(e.into_engine_error());
        }
        let state = self.shared.drain.lock();
        if let Some(e) = &state.first_error {
            return Err(e.clone());
        }
        let mut stats = state.stats;
        stats.threads = self.threads;
        Ok(stats)
    }
}

/// Completes every row still in the queue with `err` and marks the
/// stream dead so pushers fail fast: the sweep once the drain run is over
/// (or was never launched), when no worker can pop a row any more.
fn drain_pending<T: Element>(shared: &StreamShared<T>, err: EngineError) {
    let mut state = shared.drain.lock();
    if state.dead.is_none() {
        state.dead = Some(err.clone());
    }
    let leftovers: Vec<QueuedRow<T>> = state.queue.drain(..).collect();
    state.in_flight -= leftovers.len();
    for _ in &leftovers {
        state.stats.absorb(&failed_row());
    }
    if state.first_error.is_none() && !leftovers.is_empty() {
        state.first_error = Some(err.clone());
    }
    drop(state);
    shared.space.notify_all();
    for row in leftovers {
        row.resolver.resolve(row.data, Err(err.clone()));
    }
}

/// What a failed row adds to the stream's aggregate.
fn failed_row() -> RunStats {
    RunStats {
        rows: 1,
        aborts: 1,
        ..RunStats::default()
    }
}

/// Resolves a row's handle and updates the stream's aggregate state.
fn finish_row<T>(
    shared: &StreamShared<T>,
    resolver: RowResolver<T>,
    data: Vec<T>,
    result: Result<RunStats, EngineError>,
) {
    let (row_stats, err) = match &result {
        Ok(stats) => (*stats, None),
        Err(e) => (failed_row(), Some(e.clone())),
    };
    resolver.resolve(data, result);
    let mut state = shared.drain.lock();
    state.in_flight -= 1;
    absorb_row(&mut state.stats, &row_stats);
    if state.first_error.is_none() {
        state.first_error = err;
    }
    drop(state);
    shared.space.notify_all();
}

/// `(solved buffer, outcome)`: what a resolved row hands back.
type RowOutcome<T> = (Vec<T>, Result<RunStats, EngineError>);

/// One row in flight — pushed onto a [`RowStream`] (see
/// [`RowStream::push_row`]) or queued by an executor outside this crate
/// (see [`RowHandle::pending`]).
///
/// Completion is signalled, not joined: poll
/// [`is_finished`](Self::is_finished), block with [`wait`](Self::wait) /
/// [`wait_timeout`](Self::wait_timeout), register a
/// [`on_complete`](Self::on_complete) waker, or `await` the handle (it
/// implements [`IntoFuture`], resolving to the solved buffer plus the
/// outcome). [`join`](Self::join) returns the buffer synchronously.
///
/// Dropping an unfinished pushed row's handle **cancels its row**
/// (non-blocking; the worker observes the cancel at its next consult and
/// resolves the abandoned row to [`EngineError::Cancelled`]) — a caller
/// that walks away from a row does not leak work. Use
/// [`detach`](Self::detach) to drop the handle and let the row run to
/// completion anyway.
pub struct RowHandle<T> {
    cell: Arc<Completion<RowOutcome<T>>>,
    cancel: CancelToken,
    index: usize,
    detached: bool,
}

/// The half of a pending [`RowHandle`] that resolves it (see
/// [`RowHandle::pending`]).
pub struct RowResolver<T> {
    cell: Arc<Completion<RowOutcome<T>>>,
}

impl<T> RowResolver<T> {
    /// Resolves the row's handle with its buffer and outcome.
    pub fn resolve(self, data: Vec<T>, result: Result<RunStats, EngineError>) {
        self.cell.complete((data, result));
    }
}

impl<T> std::fmt::Debug for RowHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RowHandle")
            .field("index", &self.index)
            .field("finished", &self.is_finished())
            .finish()
    }
}

impl<T> RowHandle<T> {
    /// A pending handle for row `index`, cancelled through `cancel`, and
    /// the [`RowResolver`] that completes it — for an executor that
    /// queues rows itself (the service core's shards) and runs each
    /// through [`RowTask::execute`](crate::RowTask::execute). Unlike a
    /// pushed row's handle, this one does not cancel its row on drop: the
    /// row belongs to the executor that queued it, and cancelling it
    /// takes [`cancel`](Self::cancel) or the token.
    pub fn pending(cancel: CancelToken, index: usize) -> (Self, RowResolver<T>) {
        let cell = Arc::new(Completion::new());
        let resolver = RowResolver {
            cell: Arc::clone(&cell),
        };
        let handle = RowHandle {
            cell,
            cancel,
            index,
            detached: true,
        };
        (handle, resolver)
    }

    /// A handle born already resolved (push onto a closed/dead stream,
    /// or of the wrong length).
    fn resolved(cancel: CancelToken, data: Vec<T>, err: EngineError) -> Self {
        let (handle, resolver) = Self::pending(cancel, usize::MAX);
        resolver.resolve(data, Err(err));
        handle
    }

    /// The row's submission index (0-based, in push order). Pushes that
    /// were rejected outright (closed/dead stream, wrong row length)
    /// report `usize::MAX`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Whether the row has completed (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.cell.is_complete()
    }

    /// Blocks until the row completes and returns its outcome (the per-row
    /// [`RunStats`], or the per-row error). Callable repeatedly; the
    /// solved buffer stays inside the handle until [`join`](Self::join).
    pub fn wait(&self) -> Result<RunStats, EngineError> {
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::HandleWait, 0, self.index, None);
        self.cell.wait(|(_, result)| result.clone())
    }

    /// Blocks up to `budget` for completion; `None` on timeout (the row
    /// keeps going — pair with [`cancel`](Self::cancel) to give up on
    /// it). Re-waits with the *remaining* budget after spurious wakeups,
    /// so the total wait is bounded by `budget` plus scheduling slack.
    pub fn wait_timeout(&self, budget: Duration) -> Option<Result<RunStats, EngineError>> {
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::HandleWait, 0, self.index, None);
        self.cell.wait_timeout(budget, |(_, result)| result.clone())
    }

    /// Blocks until the row completes and returns the buffer together
    /// with the outcome — solved in place on success, in whatever state
    /// the row reached on error.
    pub fn join(mut self) -> (Vec<T>, Result<RunStats, EngineError>) {
        let _ = self.wait();
        self.detached = true; // the drop below must not cancel
        self.cell.take()
    }

    /// Cancels this row (idempotent): if it has not started it fails fast
    /// with [`EngineError::Cancelled`]; if it is mid-solve the worker
    /// bails at its next consult. Other rows are unaffected.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clone of the row's cancel token (cancel it from anywhere).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Registers a callback invoked exactly once when the row completes
    /// (immediately if it already has) — a completion waker for callers
    /// that drive the handle themselves. A second registration replaces
    /// the first.
    pub fn on_complete(&self, wake: impl FnOnce() + Send + 'static) {
        self.cell.on_complete(wake);
    }

    /// Drops the handle *without* cancelling the row: it runs to
    /// completion unobserved (its result is discarded when done).
    pub fn detach(mut self) {
        self.detached = true;
    }
}

impl<T> Drop for RowHandle<T> {
    fn drop(&mut self) {
        if !self.detached && !self.is_finished() {
            // Non-blocking by design: the worker resolves the abandoned
            // row to Cancelled on its own schedule; `RowStream::finish`
            // (or the stream's drop) is the quiesce point.
            self.cancel.cancel();
        }
    }
}

// ---------------------------------------------------------------------------
// Future adapters
// ---------------------------------------------------------------------------

/// A [`RowHandle`] as a runtime-agnostic [`Future`], created by
/// `await`ing the handle (its [`IntoFuture`] impl) — resolves to the
/// solved buffer plus the row's outcome, exactly like
/// [`RowHandle::join`], woken by the row's completion cell (no polling
/// loop, no executor dependency).
pub struct RowFuture<T> {
    handle: Option<RowHandle<T>>,
}

impl<T: Element> Future for RowFuture<T> {
    type Output = (Vec<T>, Result<RunStats, EngineError>);

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let handle = self
            .handle
            .as_ref()
            .expect("RowFuture polled after completion");
        // Checks and registers under one lock: no lost wakeup, and each
        // poll replaces the previous waker, so no double-wake either.
        if !handle.cell.poll_ready(cx) {
            return Poll::Pending;
        }
        Poll::Ready(self.handle.take().expect("checked above").join())
    }
}

impl<T: Element> IntoFuture for RowHandle<T> {
    type Output = (Vec<T>, Result<RunStats, EngineError>);
    type IntoFuture = RowFuture<T>;

    fn into_future(self) -> RowFuture<T> {
        RowFuture { handle: Some(self) }
    }
}

/// A [`RunHandle`] as a runtime-agnostic [`Future`], created by
/// `await`ing the handle — resolves to the run's outcome, woken by the
/// run's completion cell.
pub struct RunFuture {
    handle: Option<RunHandle>,
}

impl Future for RunFuture {
    type Output = Result<(), crate::pool::RunError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let handle = self
            .handle
            .as_ref()
            .expect("RunFuture polled after completion");
        if !handle.cell.poll_ready(cx) {
            return Poll::Pending;
        }
        // Finished: wait() returns without blocking; dropping the handle
        // afterwards is a no-op.
        Poll::Ready(self.handle.take().expect("checked above").wait())
    }
}

impl IntoFuture for RunHandle {
    type Output = Result<(), crate::pool::RunError>;
    type IntoFuture = RunFuture;

    fn into_future(self) -> RunFuture {
        RunFuture { handle: Some(self) }
    }
}

/// Waker that unparks the thread driving [`block_on`].
struct ThreadWaker(std::thread::Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives any future to completion on the current thread — a minimal
/// executor for synchronous callers of the [`Future`] adapters. Parks
/// between polls (no busy-waiting): the future's waker unparks us.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRunner;
    use plr_core::serial;
    use plr_core::signature::Signature;

    fn rows_of(width: usize, count: usize) -> Vec<Vec<i64>> {
        (0..count)
            .map(|r| {
                (0..width)
                    .map(|i| ((r * 31 + i * 7) % 13) as i64 - 6)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn streamed_rows_match_serial_reference() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = BatchRunner::new(sig.clone(), 4);
        let stream = runner.stream();
        let inputs = rows_of(57, 12);
        let handles: Vec<RowHandle<i64>> = inputs
            .iter()
            .map(|row| stream.push_row(row.clone()))
            .collect();
        // Join in reverse push order: completion is per-handle, not FIFO.
        for (handle, input) in handles.into_iter().zip(&inputs).rev() {
            let (got, result) = handle.join();
            let stats = result.unwrap();
            assert_eq!(stats.rows, 1);
            assert_eq!(got, serial::run(&sig, input));
        }
        let stats = stream.finish().unwrap();
        assert_eq!(stats.rows, 12);
        assert_eq!(stats.chunks, 12);
    }

    #[test]
    fn heterogeneous_row_lengths_are_fine() {
        let sig: Signature<f64> = "0.81,-1.62,0.81:1.6,-0.64".parse().unwrap();
        let runner = BatchRunner::new(sig.clone(), 2);
        let stream = runner.stream_with_window(3);
        let mut handles = Vec::new();
        let mut inputs = Vec::new();
        for width in [1usize, 7, 64, 131] {
            let row: Vec<f64> = (0..width).map(|i| ((i % 9) as f64) * 0.25 - 1.0).collect();
            handles.push(stream.push_row(row.clone()));
            inputs.push(row);
        }
        for (handle, input) in handles.into_iter().zip(&inputs) {
            let (got, result) = handle.join();
            result.unwrap();
            let want = serial::run(&sig, input);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() <= 1e-9 * w.abs().max(1.0), "{g} vs {w}");
            }
        }
        stream.finish().unwrap();
    }

    #[test]
    fn push_after_close_resolves_cancelled_with_buffer() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream();
        stream.close();
        let handle = stream.push_row(vec![1, 2, 3]);
        assert!(handle.is_finished());
        assert_eq!(handle.index(), usize::MAX);
        let (data, result) = handle.join();
        assert_eq!(
            data,
            vec![1, 2, 3],
            "rejected pushes leave the buffer untouched"
        );
        assert!(matches!(result, Err(EngineError::Cancelled)));
        stream.finish().unwrap();
    }

    #[test]
    fn empty_stream_finishes_clean() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 3);
        let stats = runner.stream().finish().unwrap();
        assert_eq!(stats.rows, 0);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn row_future_awaits_to_the_solved_buffer() {
        let sig: Signature<i64> = "1:1".parse().unwrap(); // prefix sum
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream();
        let handle = stream.push_row(vec![1, 2, 3, 4]);
        let (got, result) = block_on(handle.into_future());
        result.unwrap();
        assert_eq!(got, vec![1, 3, 6, 10]);
        stream.finish().unwrap();
    }

    #[test]
    fn run_future_awaits_pool_submissions() {
        let pool = Arc::new(WorkerPool::new(2));
        let handle = pool.submit(RunControl::new(), |_, _| {});
        block_on(handle.into_future()).unwrap();
    }

    #[test]
    fn precancelled_row_fails_alone_and_finish_reports_it() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig.clone(), 2);
        let stream = runner.stream();
        let ok_before = stream.push_row(vec![1; 32]);
        let token = CancelToken::new();
        token.cancel();
        let doomed = stream.push_row_ctl(vec![2; 32], RunControl::new().with_cancel(&token));
        let ok_after = stream.push_row(vec![3; 32]);
        assert!(matches!(doomed.wait(), Err(EngineError::Cancelled)));
        ok_before.wait().unwrap();
        ok_after.wait().unwrap();
        // finish surfaces the first per-row error, even a deliberate one.
        assert!(matches!(stream.finish(), Err(EngineError::Cancelled)));
    }

    #[test]
    fn expired_row_deadline_fails_fast() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream();
        let handle =
            stream.push_row_ctl(vec![1; 16], RunControl::new().with_deadline(Duration::ZERO));
        match handle.wait() {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let ok = stream.push_row(vec![1; 16]);
        ok.wait().unwrap();
    }

    #[test]
    fn dropping_the_stream_resolves_every_handle() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(8);
        let handles: Vec<RowHandle<i64>> = (0..8).map(|_| stream.push_row(vec![1; 64])).collect();
        drop(stream); // cancels pending rows, quiesces before returning
        for handle in handles {
            // Each row either completed before the drop landed or was
            // cancelled by it; neither may hang.
            match handle.wait() {
                Ok(_) | Err(EngineError::Cancelled) => {}
                other => panic!("unexpected outcome after stream drop: {other:?}"),
            }
        }
    }

    #[test]
    fn cancel_aborts_the_whole_stream() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(4);
        let first = stream.push_row(vec![1; 8]);
        first.wait().unwrap();
        stream.cancel();
        let late = stream.push_row(vec![2; 8]);
        match late.wait() {
            // Either the death landed before the push (fail-fast) or the
            // drain caught it in the queue; both resolve to Cancelled.
            Err(EngineError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert!(matches!(stream.finish(), Err(EngineError::Cancelled)));
    }

    #[test]
    fn window_bounds_in_flight_rows() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(2);
        assert_eq!(stream.window(), 2);
        for _ in 0..20 {
            stream.push_row(vec![1; 256]).detach();
            assert!(stream.in_flight() <= 2, "window must bound in-flight rows");
        }
        stream.finish().unwrap();
    }

    #[test]
    fn try_push_row_would_block_hands_the_buffer_back() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(1);
        // A multi-millisecond row holds the window full while we probe.
        let first = stream.push_row(vec![1; 2_000_000]);
        let marker: Vec<i64> = vec![7; 8];
        match stream.try_push_row(marker.clone()) {
            Err(e) => {
                assert!(e.to_string().contains("would block"), "{e}");
                assert_eq!(e.into_data(), marker, "buffer must come back untouched");
            }
            Ok(handle) => {
                // The first row won the race and finished already; the
                // probe was admitted instead of blocking — also correct.
                handle.join().1.unwrap();
            }
        }
        first.join().1.unwrap();
        stream.finish().unwrap();
    }

    #[test]
    fn push_row_timeout_admits_once_space_frees() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(1);
        let first = stream.push_row(vec![1; 1_000_000]);
        // Generous budget: the bounded wait must ride out the first row
        // and then admit, never report WouldBlock here.
        let handle = stream
            .push_row_timeout(vec![2; 64], Duration::from_secs(60))
            .expect("space frees within the budget");
        let (data, stats) = handle.join();
        stats.unwrap();
        assert_eq!(data[0], 2);
        assert_eq!(data[63], 2 * 64);
        first.join().1.unwrap();
        stream.finish().unwrap();
    }

    #[test]
    fn try_push_on_closed_stream_resolves_instead_of_would_block() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream_with_window(1);
        stream.close();
        // Closed is a *final* verdict, not backpressure: the push must
        // succeed with an already-resolved handle, exactly like push_row.
        let handle = stream
            .try_push_row(vec![3; 16])
            .expect("closed stream must not report WouldBlock");
        assert!(handle.is_finished());
        let (data, result) = handle.join();
        assert_eq!(data, vec![3; 16], "buffer untouched on a closed stream");
        assert!(matches!(result, Err(EngineError::Cancelled)));
    }

    #[test]
    fn detached_rows_still_count_in_aggregate_stats() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = BatchRunner::new(sig, 2);
        let stream = runner.stream();
        for _ in 0..5 {
            stream.push_row(vec![1; 32]).detach();
        }
        let stats = stream.finish().unwrap();
        assert_eq!(stats.rows, 5);
    }
}
