//! One service shard: a private [`WorkerPool`] draining a weighted-fair
//! queue of admitted rows, with service-time estimation, relaunch-on-fault,
//! and a serial degraded mode.
//!
//! The shard runs the execution layer's drain run ([`Drain`]), the loop
//! every streamed row is served by, over its own queue. Its workers hand
//! each row to the one per-row executor,
//! [`RowTask::execute`](plr_parallel::RowTask::execute): a per-row abort
//! signal linked to the shard's token (so [`abort`](Shard::abort) reaches
//! rows mid-solve), the row's own token and its watchdog deadline,
//! `catch_unwind` around the solve. What the shard adds is its queue and
//! bookkeeping:
//!
//! - rows come out of a [`Wfq`] (per-tenant weighted shares), not a FIFO,
//!   and a run that dies to a worker fault leaves the queue intact;
//! - every executed row feeds a per-shard EWMA of service time, which is
//!   what admission control turns into queue-delay estimates;
//! - a run that dies to a worker fault is **relaunched** (bounded times
//!   between observed progress) instead of killing the shard, and past
//!   the bound the shard *degrades* to executing admitted rows serially
//!   on the submitter's thread — through the same executor — rather than
//!   going dark. A worker fault resolves its row first, which counts as
//!   progress, so in practice only a pool that cannot spawn its submit
//!   driver thread degrades a shard.

use crate::core::SubmitOptions;
use crate::tenant::{TenantCounters, TenantRuntime};
use crate::wfq::Wfq;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_parallel::{
    AbortSignal, CancelToken, Drain, DrainQueue, RowHandle, RowResolver, RunControl, RunHandle,
    RunStats, WorkerPool,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

/// Consecutive run relaunches tolerated without a single row of progress
/// before the shard degrades to serial fallback. Any processed row resets
/// the streak, so a long-lived shard can survive arbitrarily many faults
/// as long as it keeps doing work between them.
const MAX_RELAUNCHES: u32 = 16;

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

impl<T: Element> DrainQueue for ShardState<T> {
    type Item = ServiceRow<T>;

    fn pop(&mut self) -> Option<ServiceRow<T>> {
        self.wfq.pop().map(|(_, row)| row)
    }

    fn is_closed(&self) -> bool {
        self.closed
    }
}

pub(crate) struct ShardShared<T> {
    drain: Drain<ShardState<T>>,
    pool: Arc<WorkerPool>,
    /// Cancelling it aborts the drain run and every row mid-solve.
    token: CancelToken,
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

/// One shard: pool, drain state and shutdown token, shared with the
/// drain run and its completion callback.
pub(crate) struct Shard<T: Element> {
    shared: Arc<ShardShared<T>>,
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
            drain: Drain::new(ShardState {
                wfq: Wfq::new(),
                closed: false,
                degraded: false,
                relaunches: 0,
                last_processed: 0,
                run_gen: 0,
                run: None,
            }),
            pool: Arc::new(WorkerPool::new(width.max(1))),
            token: CancelToken::new(),
            ewma_ns: AtomicU64::new(0),
            queued: AtomicUsize::new(0),
            in_service: AtomicUsize::new(0),
            processed: AtomicU64::new(0),
            next_index: AtomicUsize::new(0),
            total_relaunches: AtomicU64::new(0),
            width: width.max(1),
        });
        submit_run(&shared);
        Shard { shared }
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
        let degraded = self.shared.drain.lock().degraded;
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
        let mut st = self.shared.drain.lock();
        if st.degraded {
            // Serial fallback: the shard's parallel run is gone for good,
            // but admitted traffic still completes — on this thread.
            let handle = self.enqueue(&mut st, tenant, runtime, data, opts);
            run_inline(&self.shared, st);
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
        let handle = self.enqueue(&mut st, tenant, runtime, data, opts);
        drop(st);
        self.shared.drain.notify_one();
        Ok(handle)
    }

    /// Queues an admitted row, costed by its length, with its control
    /// (its deadline budget starts now), its shard-local index
    /// (fault-site targeting and diagnostics) and its pending handle.
    fn enqueue(
        &self,
        st: &mut ShardState<T>,
        tenant: usize,
        runtime: &Arc<TenantRuntime<T>>,
        data: Vec<T>,
        opts: SubmitOptions,
    ) -> RowHandle<T> {
        let token = opts.cancel.unwrap_or_default();
        let mut ctl = RunControl::new().with_cancel(&token);
        if let Some(budget) = opts.deadline {
            ctl = ctl.with_deadline(budget);
        }
        let index = self.shared.next_index.fetch_add(1, Ordering::Relaxed);
        let (handle, resolver) = RowHandle::pending(token, index);
        let cost = data.len() as f64;
        let row = ServiceRow {
            index,
            data,
            ctl,
            resolver,
            runtime: Arc::clone(runtime),
        };
        st.wfq.push(tenant, runtime.weight, cost, row);
        self.shared.queued.fetch_add(1, Ordering::Relaxed);
        handle
    }

    /// Closes intake for shutdown: workers exit once the queue drains.
    pub fn close(&self) {
        self.shared.drain.lock().closed = true;
        self.shared.drain.notify_all();
    }

    /// Cancels everything in flight (rows resolve `Cancelled`).
    pub fn abort(&self) {
        self.shared.token.cancel();
    }

    /// Waits for the drain run to finish (call after [`close`](Self::close)
    /// or [`abort`](Self::abort)); any rows the run left behind resolve
    /// `Cancelled`.
    pub fn join(&self) {
        let run = self.shared.drain.lock().run.take();
        if let Some(handle) = run {
            let _ = handle.wait();
        }
        // Defensive final sweep — normally the run's completion callback
        // has already drained.
        drain_with(&self.shared, EngineError::Cancelled);
    }
}

/// Launches (or relaunches) the shard's drain run; a pool without a
/// submit driver degrades the shard instead. The generation counter
/// closes the race between storing the new [`RunHandle`] and the previous
/// run's completion callback relaunching concurrently: the handle slot
/// only accepts the handle of the *current* generation, and a stale
/// handle is dropped only after its run has already finished (so the
/// drop-cancels semantics cannot kill a live run).
fn submit_run<T: Element>(shared: &Arc<ShardShared<T>>) {
    let gen = {
        let mut st = shared.drain.lock();
        st.run_gen += 1;
        st.run_gen
    };
    let job_shared = Arc::clone(shared);
    let ctl = RunControl::new().with_cancel(&shared.token);
    let launched = shared
        .drain
        .launch(&shared.pool, ctl, move |row, worker, abort| {
            job_shared.queued.fetch_sub(1, Ordering::Relaxed);
            process_row(&job_shared, worker, abort, row);
        });
    let Some(handle) = launched else {
        run_inline(shared, shared.drain.lock());
        return;
    };
    let cb_shared = Arc::downgrade(shared);
    handle.on_complete(move || {
        if let Some(shared) = cb_shared.upgrade() {
            on_run_complete(&shared);
        }
    });
    let mut st = shared.drain.lock();
    if st.run_gen == gen {
        st.run = Some(handle);
    }
    // Otherwise the run already completed and its callback launched a
    // newer generation; `handle` is finished and safe to drop here.
}

/// Decides what happens when a drain run ends, the one place its
/// leftover rows are handled: graceful close or abort → resolve them
/// `Cancelled`; worker fault with budget left → relaunch, keeping them
/// queued; budget exhausted → degrade to serial and execute them inline.
fn on_run_complete<T: Element>(shared: &Arc<ShardShared<T>>) {
    let mut st = shared.drain.lock();
    if st.closed || shared.token.is_cancelled() {
        drop(st);
        drain_with(shared, EngineError::Cancelled);
        return;
    }
    // The run died to a worker fault. Relaunch while the shard is making
    // progress; give up (degrade) after MAX_RELAUNCHES barren attempts.
    // The faulted row itself counts as progress, so this bound holds the
    // ladder's last rung, not a path any fault site reaches.
    let processed = shared.processed.load(Ordering::Relaxed);
    if processed > st.last_processed {
        st.relaunches = 0;
        st.last_processed = processed;
    }
    if st.relaunches >= MAX_RELAUNCHES {
        run_inline(shared, st);
        return;
    }
    st.relaunches += 1;
    shared.total_relaunches.fetch_add(1, Ordering::Relaxed);
    drop(st);
    submit_run(shared);
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
        let mut st = shared.drain.lock();
        take_rows(&mut st, shared)
    };
    for row in rows {
        TenantCounters::bump(&row.runtime.counters.failed);
        row.resolver.resolve(row.data, Err(err.clone()));
    }
}

/// Runs one popped row through the shared row executor, on `worker` of
/// the drain run aborted through `run_abort`. Before the row's handle
/// resolves, the shard does its bookkeeping: in-service and processed
/// counts, the service-time EWMA and the tenant's counters.
fn process_row<T: Element>(
    shared: &ShardShared<T>,
    worker: usize,
    run_abort: &AbortSignal,
    row: ServiceRow<T>,
) {
    shared.in_service.fetch_add(1, Ordering::Relaxed);
    let ServiceRow {
        index,
        data,
        ctl,
        resolver,
        runtime,
    } = row;
    let start = Instant::now();
    let complete = |data: Vec<T>, result: Result<RunStats, EngineError>| {
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
    };
    let (pool, token) = (&shared.pool, &shared.token);
    runtime
        .task
        .execute(pool, token, run_abort, worker, index, &ctl, data, complete);
}

/// Serial fallback: marks the shard degraded and executes its whole
/// backlog synchronously on the current thread, through the same
/// executor. Worker id 0 — the caller is the worker, exactly like a
/// width-1 pool — under an abort signal of its own, as no drain run is
/// left to abort.
fn run_inline<T: Element>(shared: &ShardShared<T>, mut st: MutexGuard<'_, ShardState<T>>) {
    st.degraded = true;
    let rows = take_rows(&mut st, shared);
    drop(st);
    for row in rows {
        process_row(shared, 0, &AbortSignal::default(), row);
    }
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
