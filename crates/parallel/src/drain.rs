//! One drain run: a caller's row queue served by one long-lived pool run,
//! the resident Phase 2 workers behind both a [`RowStream`](crate::RowStream)
//! and a `plr-service` shard (see [`Drain`]).

use crate::pool::{lock_recover, RunControl, RunHandle, WorkerPool};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// How often a parked worker re-checks its run's abort flag while
/// waiting for rows (bounds cancel and shutdown latency).
const POLL: Duration = Duration::from_millis(10);

/// The queue state a [`Drain`] serves: a FIFO, a weighted-fair queue, or
/// anything else that hands out its next item and knows whether more can
/// still arrive.
pub trait DrainQueue: Send + 'static {
    /// What one pop hands to the drain run's closure.
    type Item;

    /// Takes the next item to serve, if any.
    fn pop(&mut self) -> Option<Self::Item>;

    /// Whether intake is closed: the run's workers exit once the queue
    /// is empty.
    fn is_closed(&self) -> bool;
}

/// A queue shared by its producers and one long-lived drain run.
///
/// [`launch`](Self::launch) submits the run. Each worker loops: the run
/// is aborted → exit; [`pop`](DrainQueue::pop) yields an item → run the
/// caller's closure on it; intake is closed and the queue empty → exit;
/// otherwise park for 10 ms. The loop has no fault policy: the caller
/// sweeps what is left in the queue once, from a completion callback on
/// the run's [`RunHandle`]. The run ends when intake closes, when its
/// token is cancelled, or when a panic escapes the caller's closure; the
/// run's outcome then carries that panic. A row's own panic does not
/// escape ([`RowTask::execute`](crate::RowTask::execute) catches it), nor
/// does a panicking completion callback, which is contained where it
/// fires.
pub struct Drain<Q>(Arc<Shared<Q>>);

struct Shared<Q> {
    queue: Mutex<Q>,
    /// Signalled when items arrive or intake closes (workers park here).
    ready: Condvar,
}

impl<Q> Drain<Q> {
    /// Wraps `queue`; no run serves it until [`launch`](Self::launch).
    pub fn new(queue: Q) -> Self {
        Drain(Arc::new(Shared {
            queue: Mutex::new(queue),
            ready: Condvar::new(),
        }))
    }

    /// Locks the queue state, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, Q> {
        lock_recover(&self.0.queue)
    }

    /// Wakes one parked worker (an item arrived).
    pub fn notify_one(&self) {
        self.0.ready.notify_one();
    }

    /// Wakes every parked worker (intake closed).
    pub fn notify_all(&self) {
        self.0.ready.notify_all();
    }
}

impl<Q: DrainQueue> Drain<Q> {
    /// Submits the drain run on `pool` under `ctl`; each popped item goes
    /// to `serve(item, worker)`. Returns `None`, submitting
    /// nothing, when the pool cannot spawn its submit driver thread:
    /// `submit` would then run the loop on this thread, where no item
    /// could ever arrive.
    pub fn launch<F>(&self, pool: &Arc<WorkerPool>, ctl: RunControl, serve: F) -> Option<RunHandle>
    where
        F: Fn(Q::Item, usize) + Send + Sync + 'static,
    {
        if !pool.ensure_driver() {
            return None;
        }
        let shared = Arc::clone(&self.0);
        Some(pool.submit(ctl, move |worker, abort| loop {
            let item = {
                let mut queue = lock_recover(&shared.queue);
                loop {
                    if abort.is_aborted() {
                        return;
                    }
                    if let Some(item) = queue.pop() {
                        break item;
                    }
                    if queue.is_closed() {
                        return;
                    }
                    let parked = shared.ready.wait_timeout(queue, POLL);
                    queue = parked.unwrap_or_else(PoisonError::into_inner).0;
                }
            };
            serve(item, worker);
        }))
    }
}
