//! One drain run: a caller's row queue served by one long-lived pool run,
//! the resident Phase 2 workers behind both a [`RowStream`](crate::RowStream)
//! and a `plr-service` shard (see [`Drain`]).

use crate::pool::{lock_recover, CancelToken, RunControl, RunError, WorkerPanic, WorkerPool};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
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
/// [`launch`](Self::launch) starts the run on a thread of its own. Each
/// worker loops: the run is aborted → exit; [`pop`](DrainQueue::pop)
/// yields an item → run the caller's closure on it; intake is closed and
/// the queue empty → exit; otherwise park for 10 ms. The loop has no
/// fault policy: the caller sweeps what is left in the queue once, in the
/// `end` callback the run's thread calls after the run. The run ends when
/// intake closes, when its token is cancelled, or when a panic escapes
/// the caller's closure; the run's outcome then carries that panic. A
/// row's own panic does not escape
/// ([`RowTask::execute`](crate::RowTask::execute) catches it), nor does a
/// panicking completion callback, which is contained where it fires.
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
    /// Starts the drain run on `pool` under `token`: a new `plr-drain`
    /// thread runs the loop through [`WorkerPool::run_ctl`] as worker 0,
    /// beside the pool's own workers, and each popped item goes to
    /// `serve(item, worker)`. When the run returns, the thread hands its
    /// outcome to `end` — the caller's one sweep of leftover items — and
    /// exits. Returns `None`, having run nothing, when the OS refuses the
    /// thread.
    pub fn launch<F, E>(
        &self,
        pool: &Arc<WorkerPool>,
        token: &CancelToken,
        serve: F,
        end: E,
    ) -> Option<DrainRun>
    where
        F: Fn(Q::Item, usize) + Send + Sync + 'static,
        E: FnOnce(&Result<(), RunError>) + Send + 'static,
    {
        let (shared, pool) = (Arc::clone(&self.0), Arc::clone(pool));
        let ctl = RunControl::new().with_cancel(token);
        let run = move || {
            let outcome = pool.run_ctl(&ctl, |worker, abort| loop {
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
            });
            end(&outcome);
            outcome
        };
        let thread = std::thread::Builder::new()
            .name("plr-drain".to_string())
            .spawn(run)
            .ok()?;
        Some(DrainRun {
            thread: Some(thread),
            token: token.clone(),
        })
    }
}

/// A launched drain run (see [`Drain::launch`]): the thread that drives
/// it, and the token that cancels it.
///
/// Dropping it before [`join`](Self::join) cancels the run and then joins
/// its thread, so no run outlives its owner — unless the drop happens on
/// that thread itself (say, in a completion callback that releases the
/// owner), which it cannot join; the run then ends on its own once it
/// sees the cancel.
pub struct DrainRun {
    thread: Option<JoinHandle<Result<(), RunError>>>,
    token: CancelToken,
}

impl DrainRun {
    /// Waits for the run's thread and returns the run's outcome. A panic
    /// in the `end` callback reads as [`RunError::Panicked`].
    pub fn join(mut self) -> Result<(), RunError> {
        let thread = self.thread.take().expect("a run is joined once");
        thread.join().unwrap_or_else(|payload| {
            Err(RunError::Panicked(WorkerPanic::from_payload(
                0,
                payload.as_ref(),
            )))
        })
    }
}

impl Drop for DrainRun {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.token.cancel();
            if thread.thread().id() != std::thread::current().id() {
                let _ = thread.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A queue whose intake is closed from the start: its run ends at once.
    struct Closed;

    impl DrainQueue for Closed {
        type Item = ();

        fn pop(&mut self) -> Option<()> {
            None
        }

        fn is_closed(&self) -> bool {
            true
        }
    }

    /// The `end` sweep runs on the run's thread after the run; a panic
    /// there is not lost with the thread but comes back from `join`.
    #[test]
    fn a_panic_in_end_reads_as_panicked_from_join() {
        let pool = Arc::new(WorkerPool::new(2));
        let end = |outcome: &Result<(), RunError>| {
            assert_eq!(outcome, &Ok(()));
            panic!("deliberate end-sweep panic");
        };
        let run = Drain::new(Closed)
            .launch(&pool, &CancelToken::new(), |(), _| {}, end)
            .expect("the drain thread spawns");
        match run.join() {
            Err(RunError::Panicked(p)) => assert!(p.payload.contains("deliberate"), "{p}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }
}
