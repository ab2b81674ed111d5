//! One service shard: a private [`WorkerPool`] draining a weighted-fair
//! queue of admitted rows, with service-time estimation, relaunch-on-fault,
//! and a serial degraded mode.
//!
//! The shard runs one long-lived `pool.submit` drain run whose workers pop
//! rows and hand each to the execution layer's one per-row executor,
//! [`RowTask::execute`](plr_parallel::RowTask::execute), the code every
//! streamed row runs: a per-row abort signal linked to the shard's token
//! (so [`abort`](Shard::abort) reaches rows mid-solve), the row's own
//! token and its watchdog deadline, `catch_unwind` around the solve. What
//! the shard adds is its own drain loop and bookkeeping:
//!
//! - rows come out of a [`Wfq`] (per-tenant weighted shares), not a FIFO,
//!   and a run that dies to a worker fault leaves the queue intact;
//! - every executed row feeds a per-shard EWMA of service time, which is
//!   what admission control turns into queue-delay estimates;
//! - a run that dies to a worker fault is **relaunched** (bounded times
//!   between observed progress) instead of killing the shard, and past
//!   the bound the shard *degrades* to executing admitted rows serially
//!   on the submitter's thread — through the same executor — rather than
//!   going dark.

use crate::core::SubmitOptions;
use crate::lock_recover;
use crate::tenant::{TenantCounters, TenantRuntime};
use crate::wfq::Wfq;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_parallel::{
    AbortReason, AbortSignal, CancelToken, RowHandle, RowResolver, RunControl, RunHandle,
    WorkerPool,
};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How often a parked shard worker re-checks the run-level abort flag
/// while waiting for rows (bounds shutdown/cancel latency).
const POLL: Duration = Duration::from_millis(10);

/// Consecutive run relaunches tolerated without a single row of progress
/// before the shard degrades to serial fallback. Any processed row resets
/// the streak, so a long-lived shard can survive arbitrarily many faults
/// as long as it keeps doing work between them.
const MAX_RELAUNCHES: u32 = 16;

thread_local! {
    /// True while this thread is inside a `submit` call launching the
    /// shard run. If the pool's driver cannot spawn, `submit` degrades to
    /// running the job synchronously on this very thread — which for a
    /// drain loop means no row could ever arrive. The worker detects the
    /// re-entry and flips the shard to degraded mode instead of spinning.
    static INLINE_LAUNCH: Cell<bool> = const { Cell::new(false) };
}

struct InlineLaunchGuard;

impl Drop for InlineLaunchGuard {
    fn drop(&mut self) {
        INLINE_LAUNCH.with(|f| f.set(false));
    }
}

/// One admitted row queued on a shard.
struct ServiceRow<T> {
    index: usize,
    data: Vec<T>,
    ctl: RunControl,
    resolver: RowResolver<T>,
    runtime: Arc<TenantRuntime<T>>,
}

struct ShardState<T> {
    wfq: Wfq<ServiceRow<T>>,
    closed: bool,
    degraded: bool,
    /// Relaunches since the last observed progress.
    relaunches: u32,
    /// `processed` snapshot at the last relaunch decision.
    last_processed: u64,
    /// Monotonic run generation; guards the handle slot against the
    /// relaunch-during-launch race (see `submit_run`).
    run_gen: u64,
    run: Option<RunHandle>,
}

pub(crate) struct ShardShared<T> {
    state: Mutex<ShardState<T>>,
    ready: Condvar,
    /// EWMA of per-row wall service time in nanoseconds (0 = no sample
    /// yet; admission is optimistic until the first rows complete).
    ewma_ns: AtomicU64,
    /// Mirrors `wfq.len()` for lock-free shard selection.
    queued: AtomicUsize,
    /// Rows popped but not yet resolved.
    in_service: AtomicUsize,
    /// Rows resolved by the executor (including degraded-inline ones);
    /// progress signal for the relaunch bound.
    processed: AtomicU64,
    /// Per-shard row sequence for fault-site targeting and diagnostics.
    next_index: AtomicUsize,
    /// Cumulative drain-run relaunches (reported in stats).
    total_relaunches: AtomicU64,
    /// Nominal pool width used by delay estimation.
    width: usize,
}

/// One shard: pool + shared drain state + shutdown token.
pub(crate) struct Shard<T: Element> {
    pool: Arc<WorkerPool>,
    shared: Arc<ShardShared<T>>,
    token: CancelToken,
}

/// Point-in-time shard health, from
/// [`ServiceCore::stats`](crate::ServiceCore::stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Nominal worker count (the calling thread included).
    pub width: usize,
    /// Rows admitted but not yet popped by a worker.
    pub queued: usize,
    /// Rows being solved right now.
    pub in_service: usize,
    /// EWMA of per-row service time in nanoseconds (0 = no sample yet).
    pub ewma_service_nanos: u64,
    /// Rows the shard's executor resolved since creation (including rows
    /// that failed fast because they were cancelled or expired in the
    /// queue).
    pub processed: u64,
    /// Times the drain run was relaunched after a worker fault.
    pub relaunches: u64,
    /// Whether the shard has fallen back to serial inline execution.
    pub degraded: bool,
}

impl<T: Element> Shard<T> {
    pub fn new(width: usize) -> Self {
        let shared = Arc::new(ShardShared {
            state: Mutex::new(ShardState {
                wfq: Wfq::new(),
                closed: false,
                degraded: false,
                relaunches: 0,
                last_processed: 0,
                run_gen: 0,
                run: None,
            }),
            ready: Condvar::new(),
            ewma_ns: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            in_service: AtomicUsize::new(0),
            processed: AtomicU64::new(0),
            next_index: AtomicUsize::new(0),
            total_relaunches: AtomicU64::new(0),
            width: width.max(1),
        });
        let shard = Shard {
            pool: Arc::new(WorkerPool::new(width.max(1))),
            shared,
            token: CancelToken::new(),
        };
        submit_run(&shard.pool, &shard.shared, &shard.token);
        shard
    }

    /// Estimated queue delay for a newly admitted row, in nanoseconds:
    /// `backlog / width` service times ahead of it. Lock-free — used by
    /// the core to pick the least-loaded shard.
    pub fn est_delay_ns(&self) -> u64 {
        let backlog = (self.shared.queued.load(Ordering::Relaxed)
            + self.shared.in_service.load(Ordering::Relaxed)) as u64;
        self.shared
            .ewma_ns
            .load(Ordering::Relaxed)
            .saturating_mul(backlog)
            / self.shared.width as u64
    }

    pub fn stats(&self) -> ShardStats {
        let degraded = lock_recover(&self.shared.state).degraded;
        ShardStats {
            width: self.shared.width,
            queued: self.shared.queued.load(Ordering::Relaxed),
            in_service: self.shared.in_service.load(Ordering::Relaxed),
            ewma_service_nanos: self.shared.ewma_ns.load(Ordering::Relaxed),
            processed: self.shared.processed.load(Ordering::Relaxed),
            relaunches: self.shared.total_relaunches.load(Ordering::Relaxed),
            degraded,
        }
    }

    /// Admission decision for one row, made under the shard lock:
    /// admitted rows (enqueued, or executed inline when degraded) get a
    /// pending handle, shed rows an error, in precedence order: hard
    /// queue cap, per-tenant weighted backlog cap, deadline feasibility.
    pub fn admit(
        &self,
        tenant: usize,
        runtime: &Arc<TenantRuntime<T>>,
        data: Vec<T>,
        opts: SubmitOptions,
        max_queue: usize,
    ) -> Result<RowHandle<T>, EngineError> {
        let ewma = self.shared.ewma_ns.load(Ordering::Relaxed);
        let mut st = lock_recover(&self.shared.state);
        if st.degraded {
            // Serial fallback: the shard's parallel run is gone for good,
            // but admitted traffic still completes — on this thread.
            drop(st);
            let (handle, row) = self.admitted_row(runtime, data, opts);
            execute_row_inline(&self.pool, &self.shared, &self.token, row);
            return Ok(handle);
        }
        let queued = st.wfq.len();
        // 1. Hard cap: the queue is a bounded resource, full stop.
        if queued >= max_queue {
            return Err(EngineError::Overloaded {
                retry_after_hint: Duration::from_nanos(ewma.max(100_000)),
            });
        }
        // 2. Weighted backlog cap, enforced once the queue passes half
        //    full: tenant i may hold at most its weight's share of the
        //    remaining capacity, so under pressure the lowest-weight
        //    tenants hit their cap (shed) first while heavier tenants
        //    keep their contracted share.
        if queued >= max_queue / 2 {
            let weight = f64::from(runtime.weight.max(1));
            let mut active = st.wfq.active_weight();
            if st.wfq.backlog(tenant) == 0 {
                active += weight;
            }
            let cap = ((max_queue as f64 * weight / active) as usize).max(1);
            if st.wfq.backlog(tenant) >= cap {
                return Err(EngineError::Overloaded {
                    retry_after_hint: Duration::from_nanos(ewma.max(100_000)),
                });
            }
        }
        // 3. Deadline feasibility: the estimated queue delay may claim at
        //    most *half* the row's budget — the other half is reserved
        //    for the solve itself, scheduler jitter, and estimate error
        //    (the EWMA is an average; admitting right up to the budget
        //    would turn every above-average service time into a miss).
        //    The wait estimate is weight-aware — under WFQ a tenant's own
        //    backlog drains at its *fair-share* rate `w_i / W_active` of
        //    the shard, so a low-weight tenant behind the same queue sees
        //    a proportionally longer delay (and is therefore shed first
        //    as pressure builds, which is the intended degradation
        //    order).
        if let Some(budget) = opts.deadline {
            let weight = f64::from(runtime.weight.max(1));
            let active = {
                let mut a = st.wfq.active_weight();
                if st.wfq.backlog(tenant) == 0 {
                    a += weight;
                }
                a
            };
            let own_ahead = st.wfq.backlog(tenant) as f64
                + self.shared.in_service.load(Ordering::Relaxed) as f64 / 2.0;
            let est_ns = (ewma as f64
                * (1.0 + own_ahead * active / weight / self.shared.width as f64))
                as u64;
            if u128::from(est_ns).saturating_mul(2) > budget.as_nanos() {
                let budget_ns = (budget.as_nanos() / 2).min(u128::from(u64::MAX)) as u64;
                return Err(EngineError::Overloaded {
                    retry_after_hint: Duration::from_nanos(
                        est_ns.saturating_sub(budget_ns).max(100_000),
                    ),
                });
            }
        }
        let cost = data.len() as f64;
        let (handle, row) = self.admitted_row(runtime, data, opts);
        st.wfq.push(tenant, runtime.weight, cost, row);
        self.shared.queued.fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.shared.ready.notify_one();
        Ok(handle)
    }

    /// Gives an admitted row its control (its deadline budget starts
    /// now), its shard-local index (fault-site targeting and diagnostics)
    /// and its pending handle.
    fn admitted_row(
        &self,
        runtime: &Arc<TenantRuntime<T>>,
        data: Vec<T>,
        opts: SubmitOptions,
    ) -> (RowHandle<T>, ServiceRow<T>) {
        let token = opts.cancel.unwrap_or_default();
        let mut ctl = RunControl::new().with_cancel(&token);
        if let Some(budget) = opts.deadline {
            ctl = ctl.with_deadline(budget);
        }
        let index = self.shared.next_index.fetch_add(1, Ordering::Relaxed);
        let (handle, resolver) = RowHandle::pending(token, index);
        let row = ServiceRow {
            index,
            data,
            ctl,
            resolver,
            runtime: Arc::clone(runtime),
        };
        (handle, row)
    }

    /// Closes intake for shutdown: workers exit once the queue drains.
    pub fn close(&self) {
        lock_recover(&self.shared.state).closed = true;
        self.shared.ready.notify_all();
    }

    /// Cancels everything in flight (rows resolve `Cancelled`).
    pub fn abort(&self) {
        self.token.cancel();
    }

    /// Waits for the drain run to finish (call after [`close`](Self::close)
    /// or [`abort`](Self::abort)); any rows the run left behind resolve
    /// `Cancelled`.
    pub fn join(&self) {
        let run = lock_recover(&self.shared.state).run.take();
        if let Some(handle) = run {
            let _ = handle.wait();
        }
        // Defensive final sweep — normally the run's completion callback
        // has already drained.
        drain_with(&self.shared, EngineError::Cancelled);
    }
}

/// Launches (or relaunches) the shard's drain run. The generation counter
/// closes the race between storing the new [`RunHandle`] and the previous
/// run's completion callback relaunching concurrently: the handle slot
/// only accepts the handle of the *current* generation, and a stale
/// handle is dropped only after its run has already finished (so the
/// drop-cancels semantics cannot kill a live run).
fn submit_run<T: Element>(
    pool: &Arc<WorkerPool>,
    shared: &Arc<ShardShared<T>>,
    token: &CancelToken,
) {
    let gen = {
        let mut st = lock_recover(&shared.state);
        st.run_gen += 1;
        st.run_gen
    };
    let handle = {
        let job_shared = Arc::clone(shared);
        let job_pool = Arc::clone(pool);
        let job_token = token.clone();
        INLINE_LAUNCH.with(|f| f.set(true));
        let _guard = InlineLaunchGuard;
        pool.submit(
            RunControl::new().with_cancel(token),
            move |worker, run_abort| {
                shard_worker(&job_pool, &job_shared, &job_token, worker, run_abort)
            },
        )
    };
    {
        let cb_shared = Arc::downgrade(shared);
        let cb_pool = Arc::clone(pool);
        let cb_token = token.clone();
        handle.on_complete(move || {
            if let Some(shared) = cb_shared.upgrade() {
                on_run_complete(&cb_pool, &shared, &cb_token);
            }
        });
    }
    let mut st = lock_recover(&shared.state);
    if st.run_gen == gen {
        st.run = Some(handle);
    }
    // Otherwise the run already completed and its callback launched a
    // newer generation; `handle` is finished and safe to drop here.
}

/// Decides what happens when a drain run ends: graceful close → drain
/// leftovers; worker fault with budget left → relaunch; budget exhausted
/// → degrade to serial and execute the backlog inline.
fn on_run_complete<T: Element>(
    pool: &Arc<WorkerPool>,
    shared: &Arc<ShardShared<T>>,
    token: &CancelToken,
) {
    let mut st = lock_recover(&shared.state);
    if st.closed || token.is_cancelled() {
        drop(st);
        drain_with(shared, EngineError::Cancelled);
        return;
    }
    if st.degraded {
        let rows = take_rows(&mut st, shared);
        drop(st);
        for row in rows {
            execute_row_inline(pool, shared, token, row);
        }
        return;
    }
    // The run died to a worker fault. Relaunch while the shard is making
    // progress; give up (degrade) after MAX_RELAUNCHES barren attempts.
    let processed = shared.processed.load(Ordering::Relaxed);
    if processed > st.last_processed {
        st.relaunches = 0;
        st.last_processed = processed;
    }
    if st.relaunches >= MAX_RELAUNCHES {
        st.degraded = true;
        let rows = take_rows(&mut st, shared);
        drop(st);
        for row in rows {
            execute_row_inline(pool, shared, token, row);
        }
        return;
    }
    st.relaunches += 1;
    shared.total_relaunches.fetch_add(1, Ordering::Relaxed);
    drop(st);
    submit_run(pool, shared, token);
}

/// Pops everything out of the queue (state lock held by the caller).
fn take_rows<T>(st: &mut ShardState<T>, shared: &ShardShared<T>) -> VecDeque<ServiceRow<T>> {
    let rows: VecDeque<ServiceRow<T>> = st.wfq.drain().into_iter().map(|(_, row)| row).collect();
    shared.queued.fetch_sub(rows.len(), Ordering::Relaxed);
    rows
}

/// Resolves every queued row with `err` (shutdown/abort path).
fn drain_with<T: Element>(shared: &ShardShared<T>, err: EngineError) {
    let rows = {
        let mut st = lock_recover(&shared.state);
        take_rows(&mut st, shared)
    };
    for row in rows {
        TenantCounters::bump(&row.runtime.counters.failed);
        row.resolver.resolve(row.data, Err(err.clone()));
    }
}

/// The long-lived drain loop every pool worker runs: pop the WFQ, run the
/// row; on shutdown or abort resolve the queue, on a worker fault leave
/// it for the relaunched run.
fn shard_worker<T: Element>(
    pool: &WorkerPool,
    shared: &ShardShared<T>,
    token: &CancelToken,
    worker: usize,
    run_abort: &AbortSignal,
) {
    loop {
        let row = {
            let mut st = lock_recover(&shared.state);
            loop {
                if run_abort.is_aborted() {
                    drop(st);
                    if matches!(run_abort.reason(), Some(AbortReason::Cancelled) | None) {
                        // Shutdown/abort: the queue will never drain
                        // normally; resolve it now.
                        drain_with(shared, EngineError::Cancelled);
                    }
                    // Worker fault: leave the queue intact for the
                    // relaunched run to pick up.
                    return;
                }
                if let Some((_, row)) = st.wfq.pop() {
                    shared.queued.fetch_sub(1, Ordering::Relaxed);
                    shared.in_service.fetch_add(1, Ordering::Relaxed);
                    break row;
                }
                if st.closed {
                    return;
                }
                if INLINE_LAUNCH.with(Cell::get) {
                    // Degenerate synchronous launch (no driver thread):
                    // no rows can ever arrive on this call. Flip to
                    // serial fallback and let admission execute inline.
                    st.degraded = true;
                    return;
                }
                // Timed wait so parked workers notice aborts within one
                // poll even if no notify ever arrives.
                st = shared
                    .ready
                    .wait_timeout(st, POLL)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        process_row(pool, shared, token, worker, row);
    }
}

/// Runs one popped row through the shared row executor. Before the row's
/// handle resolves, the shard does its bookkeeping: in-service and
/// processed counts, the service-time EWMA and the tenant's counters.
fn process_row<T: Element>(
    pool: &WorkerPool,
    shared: &ShardShared<T>,
    token: &CancelToken,
    worker: usize,
    row: ServiceRow<T>,
) {
    let ServiceRow {
        index,
        data,
        ctl,
        resolver,
        runtime,
    } = row;
    let start = Instant::now();
    runtime
        .task
        .execute(pool, token, worker, index, &ctl, data, |data, result| {
            shared.in_service.fetch_sub(1, Ordering::Relaxed);
            shared.processed.fetch_add(1, Ordering::Relaxed);
            if result.is_ok() {
                let wall = start.elapsed().as_nanos() as u64;
                ewma_update(shared, wall);
                note_success(&runtime, wall, data.len());
            } else {
                TenantCounters::bump(&runtime.counters.failed);
            }
            resolver.resolve(data, result);
        });
}

/// Serial fallback: executes one admitted row synchronously on the
/// current thread (degraded shards and post-degradation backlog). Worker
/// id 0 — the caller is the worker, exactly like a width-1 pool.
fn execute_row_inline<T: Element>(
    pool: &WorkerPool,
    shared: &ShardShared<T>,
    token: &CancelToken,
    row: ServiceRow<T>,
) {
    shared.in_service.fetch_add(1, Ordering::Relaxed);
    process_row(pool, shared, token, 0, row);
}

fn note_success<T>(runtime: &TenantRuntime<T>, wall: u64, elems: usize) {
    TenantCounters::bump(&runtime.counters.completed);
    runtime
        .counters
        .service_nanos
        .fetch_add(wall, Ordering::Relaxed);
    runtime
        .counters
        .completed_elems
        .fetch_add(elems as u64, Ordering::Relaxed);
}

/// EWMA with alpha = 1/8: new = old + (sample - old) / 8. Racy
/// read-modify-write is fine — this is an estimate, not an invariant.
fn ewma_update<T>(shared: &ShardShared<T>, sample: u64) {
    let old = shared.ewma_ns.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample
    } else {
        (old as i64 + (sample as i64 - old as i64) / 8) as u64
    };
    shared.ewma_ns.store(new.max(1), Ordering::Relaxed);
}
