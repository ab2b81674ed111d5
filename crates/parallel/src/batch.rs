//! Batched execution over many independent sequences.
//!
//! The paper's future work lists "multiple dimensions"; the 2D codes it
//! compares against (Alg3, Rec) filter image rows. This runner applies one
//! signature to a batch of independent sequences — image rows, audio
//! channels, per-key streams — distributing whole sequences across the
//! same persistent [`WorkerPool`] the intra-row runner uses. Within a
//! sequence the serial loop is optimal on a CPU thread; across sequences
//! the batch is embarrassingly parallel, and for batches with few long
//! rows the workers fall back to chunked decoupled look-back within a row
//! (via a cached [`ParallelRunner`] — its correction table and its pool
//! survive across `run_rows` calls and are only rebuilt when the row
//! geometry changes the chunk size).

use crate::pipeline::{for_each_chunk, timed};
use crate::pool::{
    lock_recover, resolve_threads, AbortSignal, CancelToken, RunControl, RunError, WorkerPanic,
    WorkerPool,
};
use crate::runner::{ParallelRunner, RunnerConfig};
use crate::stats::{fold_kernel, RunStats};
use crate::stream::RowStream;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::kernel::KernelKind;
use plr_core::plan::{self, CorrectionPlan, PlanKind, PlanRequest};
use plr_core::segmented::SegmentedPlan;
use plr_core::signature::Signature;
use plr_core::varying::VaryingPlan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The intra-row runner cached between `run_rows` calls, keyed by the
/// chunk size its correction table was generated for.
#[derive(Debug)]
struct CachedInner<T> {
    chunk_size: usize,
    runner: ParallelRunner<T>,
}

/// The per-row unit of work shared by the blocking whole-rows path, the
/// streaming layer and the service core: the in-place FIR map and local
/// solve, fused into one pass where the plan fuses them and timed as the
/// solve.
///
/// Every whole-row path — `run_rows` of the batch, varying and segmented
/// runners, [`RowStream`] and the service core's shards — solves rows
/// through literally this code ([`apply`](Self::apply)), and every
/// queued row — streamed or service — runs through one per-row protocol
/// around it ([`execute`](Self::execute)), so a row cannot drift between
/// executors. The same dispatch carries time-varying
/// ([`RowTask::varying`]) and segmented ([`RowTask::segmented`]) rows, so
/// those workloads inherit the batch and stream layers' cancel /
/// deadline / fault semantics without a parallel code path.
#[derive(Debug, Clone)]
pub struct RowTask<T> {
    inner: TaskInner<T>,
}

#[derive(Debug, Clone)]
enum TaskInner<T> {
    /// Constant coefficients: a whole-row (chunk-size-0) correction plan
    /// served through the shared plan cache.
    Constant {
        plan: Arc<CorrectionPlan<T>>,
        /// Whether the plan came from the shared cache (reported in stats).
        cache_hit: bool,
    },
    /// Per-element coefficients: the matrix-carry chunk plan, solved as a
    /// fused sequential sweep within the row (rows are independent, so
    /// each starts from real — zero — history and needs no correction).
    /// Never consults the constant path's correction-plan cache.
    Varying { plan: Arc<VaryingPlan<T>> },
    /// Segmented rows: one signature with history resets at segment
    /// starts. Each segment solves as its own sequence (rows are
    /// independent and each segment restarts from zero history, so no
    /// correction is ever needed). Like varying tasks, the boundary map
    /// is not part of the constant plan cache's key, so segmented tasks
    /// never consult (or populate) that cache.
    Segmented { plan: Arc<SegmentedPlan<T>> },
}

impl<T: Element> RowTask<T> {
    /// Builds the per-row work unit for `signature`: a whole-row
    /// (chunk-size-0) plan served through the shared plan cache. Public so
    /// external row executors — notably the service core's shard workers —
    /// run rows through literally the same code path as
    /// [`BatchRunner::run_rows`] and [`RowStream`] (see
    /// [`execute`](Self::execute)).
    ///
    /// [`BatchRunner::run_rows`]: crate::batch::BatchRunner::run_rows
    pub fn new(signature: &Signature<T>) -> Self {
        let (plan, cache_hit) = plan::plan_for(signature, PlanRequest::new::<T>(0));
        RowTask {
            inner: TaskInner::Constant { plan, cache_hit },
        }
    }

    /// Builds the per-row work unit for a time-varying signature. Every
    /// row must have exactly the plan's bound length — the coefficients
    /// are positional.
    pub fn varying(plan: Arc<VaryingPlan<T>>) -> Self {
        RowTask {
            inner: TaskInner::Varying { plan },
        }
    }

    /// Builds the per-row work unit for a segmented workload. Every row
    /// must have exactly the plan's bound length — the segment boundaries
    /// are positional.
    pub fn segmented(plan: Arc<SegmentedPlan<T>>) -> Self {
        RowTask {
            inner: TaskInner::Segmented { plan },
        }
    }

    /// Maps and solves one row in place, returning what the row adds to
    /// its stats: `solve_nanos` (the map's time included),
    /// `solve_slices` and, for a varying row, the `kernel` its chunks
    /// solved with (other tasks report their one kernel in the row's
    /// base stats). The solve is time-sliced against `abort`, so a
    /// cancel or deadline lands mid-row instead of after it; on an abort
    /// the row is left partially solved and the caller's reason-derived
    /// resolution reports the outcome.
    ///
    /// The worker/row indices feed the fault harness's `Solve` site (the
    /// same site the blocking path consults); they are unused otherwise.
    ///
    /// # Panics
    ///
    /// When a varying or segmented task is given a row without its plan's
    /// bound length. The blocking row paths and [`RowStream`] reject such
    /// rows with [`EngineError::LengthMismatch`] before they get here.
    pub fn apply(
        &self,
        row: &mut [T],
        _worker: usize,
        _index: usize,
        abort: Option<&AbortSignal>,
    ) -> RunStats {
        if let Some(len) = self.bound_len() {
            assert_eq!(
                row.len(),
                len,
                "row length must match the task's bound length"
            );
        }
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::Solve, _worker, _index, abort);
        let keep_going = &mut || abort.is_none_or(|a| !a.is_aborted());
        let mut solve_ns = 0u64;
        let mut kernel = KernelKind::Unknown;
        // Rows are independent, so every row solves from zero (real)
        // history and needs no correction.
        let slices = timed(&mut solve_ns, || match &self.inner {
            TaskInner::Constant { plan, .. } => plan.map_solve_sliced(row, &[], keep_going).slices,
            // Each segment restarts from zero history.
            TaskInner::Segmented { plan } => plan.map_solve_row(row, keep_going).slices,
            // A fused sweep over the plan's chunks: each continues from the
            // previous chunk's real state, reusing constant-row kernels
            // where the plan selected them.
            TaskInner::Varying { plan } => {
                let m = plan.chunk_size();
                let mut state = vec![T::zero(); plan.order()];
                let mut slices = 0u64;
                for (c, chunk) in row.chunks_mut(m).enumerate() {
                    let out = plan.solve_chunk(c, Some(&state), chunk, keep_going);
                    slices += out.slices;
                    kernel = fold_kernel(kernel, out.kernel);
                    if !out.completed {
                        break;
                    }
                    state = out.state;
                }
                slices
            }
        });
        RunStats {
            solve_nanos: solve_ns,
            solve_slices: slices,
            kernel,
            ..RunStats::default()
        }
    }

    /// Runs one queued row through the per-row protocol every row
    /// executor shares — the [`Drain`](crate::Drain) runs of a
    /// [`RowStream`] and of a service shard, and a degraded shard's
    /// inline path — and hands the buffer and outcome to `complete`:
    ///
    /// 1. a row whose `ctl` already tripped (cancelled or past its
    ///    deadline while queued) fails fast, without work;
    /// 2. otherwise the row gets a fresh [`AbortSignal`] that observes
    ///    its own token and deadline and `run`, the owning drain run's
    ///    token, so cancelling either token or missing the deadline lands
    ///    at the solve's next abort poll;
    /// 3. the `Row` fault site and [`apply`](Self::apply) run under
    ///    `catch_unwind`, so a panic fails only this row;
    /// 4. the signal is polled once more and its reason, if any, becomes
    ///    the row's [`EngineError`];
    /// 5. a solved row reports the same per-row [`RunStats`] `run_rows`
    ///    aggregates: plan, kernel, chunks and taps, plus its timings.
    ///
    /// `worker` and `index` identify the row to the fault harness.
    pub fn execute(
        &self,
        run: &CancelToken,
        worker: usize,
        index: usize,
        ctl: &RunControl,
        mut data: Vec<T>,
        complete: impl FnOnce(Vec<T>, Result<RunStats, EngineError>),
    ) {
        if let Err(e) = ctl.status() {
            complete(data, Err(e.into_engine_error()));
            return;
        }
        let abort = ctl.signal(Some(run));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            crate::fault::check(crate::fault::FaultSite::Row, worker, index, Some(&abort));
            self.apply(&mut data, worker, index, Some(&abort))
        }));
        let result = match outcome {
            Ok(solved) => ctl
                .outcome(&abort)
                .map(|()| self.row_stats(&solved))
                .map_err(RunError::into_engine_error),
            Err(payload) => {
                Err(WorkerPanic::from_payload(worker, payload.as_ref()).into_engine_error())
            }
        };
        complete(data, result);
    }

    /// One solved row's stats: [`base_stats(1)`](Self::base_stats) plus
    /// what [`apply`](Self::apply) returned.
    fn row_stats(&self, solved: &RunStats) -> RunStats {
        let mut stats = RunStats {
            threads: 1,
            ..self.base_stats(1)
        };
        stats.absorb(solved);
        stats
    }

    /// The length every row must have: the plan's bound length for
    /// varying and segmented tasks (their coefficients or boundaries are
    /// positional), `None` for constant tasks, which take any length.
    pub(crate) fn bound_len(&self) -> Option<usize> {
        match &self.inner {
            TaskInner::Constant { .. } => None,
            TaskInner::Varying { plan } => Some(plan.len()),
            TaskInner::Segmented { plan } => Some(plan.len()),
        }
    }

    /// The stats every whole-row run of `rows` rows reports: plan and
    /// kernel summary, cache outcome, and chunks (the plan's chunks per
    /// varying or segmented row, whose correction taps are reported too;
    /// one per constant row). A varying task leaves the kernel to its
    /// rows' solves ([`apply`](Self::apply)), so no chunk's plan work
    /// runs before a row reaches the chunk.
    pub(crate) fn base_stats(&self, rows: usize) -> RunStats {
        let (correction_taps, chunks_per_row) = match &self.inner {
            TaskInner::Constant { .. } => (0, 1),
            TaskInner::Varying { plan } => (plan.order(), plan.num_chunks()),
            TaskInner::Segmented { plan } => {
                (plan.correction().correction_taps(), plan.num_chunks())
            }
        };
        RunStats {
            rows: rows as u64,
            chunks: (rows * chunks_per_row) as u64,
            plan_cache_hits: self.plan_cache_hits(),
            plan_cache_misses: self.plan_cache_misses(),
            plan_kind: self.plan_kind(),
            kernel: match &self.inner {
                TaskInner::Varying { .. } => KernelKind::Unknown,
                _ => self.kernel_kind(),
            },
            correction_taps: correction_taps as u64,
            ..RunStats::default()
        }
    }

    /// The number of `width`-element rows in `len` elements.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedSignature`] when `width == 0` or does not
    /// divide `len`; [`EngineError::LengthMismatch`] when `width` is not
    /// the task's [`bound_len`](Self::bound_len).
    fn row_count(&self, len: usize, width: usize) -> Result<usize, EngineError> {
        if width == 0 || !len.is_multiple_of(width) {
            return Err(EngineError::UnsupportedSignature {
                reason: format!("row width {width} does not divide the data length {len}"),
            });
        }
        match self.bound_len() {
            Some(expected) if width != expected => Err(EngineError::LengthMismatch {
                expected,
                got: width,
            }),
            _ => Ok(len / width),
        }
    }

    /// Strategy summary reported in per-row stats ([`PlanKind::Unplanned`]
    /// for whole-row constant plans, which never correct;
    /// [`PlanKind::MatrixCarry`] for varying rows).
    pub fn plan_kind(&self) -> PlanKind {
        match &self.inner {
            TaskInner::Constant { plan, .. } => plan.kind(),
            TaskInner::Varying { .. } => PlanKind::MatrixCarry,
            TaskInner::Segmented { plan } => plan.correction().kind(),
        }
    }

    /// The serial solve kernel the task's plan dispatches to (reported in
    /// per-row and aggregate stats). Varying tasks report the per-chunk
    /// summary: [`KernelKind::Mixed`] when chunks of different kernel
    /// classes (constant-row kernels, the lanes, the chain) occur in a row.
    pub fn kernel_kind(&self) -> KernelKind {
        match &self.inner {
            TaskInner::Constant { plan, .. } => plan.solve().kind(),
            TaskInner::Varying { plan } => plan.aggregate_kernel_kind(),
            TaskInner::Segmented { plan } => plan.correction().solve().kind(),
        }
    }

    /// Whether the task's plan was served from the shared cache (always
    /// `false` for varying tasks, which have no cache to hit).
    pub fn cache_hit(&self) -> bool {
        match &self.inner {
            TaskInner::Constant { cache_hit, .. } => *cache_hit,
            TaskInner::Varying { .. } | TaskInner::Segmented { .. } => false,
        }
    }

    /// Plan-cache hits to report for this task: `1`/`0` for constant
    /// tasks; `0` for varying tasks, which never consult the cache.
    pub fn plan_cache_hits(&self) -> u64 {
        u64::from(self.cache_hit())
    }

    /// Plan-cache misses to report for this task: the complement of
    /// [`RowTask::plan_cache_hits`] for constant tasks; `0` for varying
    /// tasks, which never consult (or populate) the cache.
    pub fn plan_cache_misses(&self) -> u64 {
        u64::from(!self.cache_hit() && matches!(self.inner, TaskInner::Constant { .. }))
    }
}

/// A batched executor for one signature.
#[derive(Debug)]
pub struct BatchRunner<T> {
    signature: Signature<T>,
    /// The shared per-row work unit (map + local solve).
    task: RowTask<T>,
    threads: usize,
    /// Persistent workers, leased on first use and shared with the
    /// cached intra-row runner.
    pool: OnceLock<Arc<WorkerPool>>,
    inner: Mutex<Option<CachedInner<T>>>,
}

impl<T: Element> BatchRunner<T> {
    /// Creates a batch runner; `threads == 0` means one per CPU.
    pub fn new(signature: Signature<T>, threads: usize) -> Self {
        // A chunk-size-0 plan: whole-row dispatch never corrects, so the
        // plan only supplies the FIR and local-solve kernels (shared with
        // every other consumer of this signature through the cache).
        let task = RowTask::new(&signature);
        BatchRunner {
            signature,
            task,
            threads,
            pool: OnceLock::new(),
            inner: Mutex::new(None),
        }
    }

    /// The worker count (resolving 0 to the CPU count).
    pub fn threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// The persistent pool, leased on first use: an idle pool of the
    /// runner's width when the process has one, else a new one
    /// (`WorkerPool::lease`).
    fn pool(&self) -> &Arc<WorkerPool> {
        self.pool.get_or_init(|| WorkerPool::lease(self.threads()))
    }

    /// Applies the recurrence to each row of a row-major matrix in place.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedSignature`] when `width == 0` or
    /// the data length is not a multiple of `width`, and
    /// [`EngineError::WorkerPanicked`] when a worker (or the calling
    /// thread) panicked mid-run — the pool survives and the batch runner
    /// stays usable, but `data` is left partially processed.
    pub fn run_rows(&self, data: &mut [T], width: usize) -> Result<RunStats, EngineError> {
        self.run_rows_ctl(data, width, None)
    }

    /// Like [`BatchRunner::run_rows`], but observing a caller-held
    /// [`CancelToken`]: cancelling any clone aborts the batch — mid-row
    /// through the same cooperative bail-out paths a worker panic uses,
    /// and between rows on the long-rows path — and the call returns
    /// [`EngineError::Cancelled`]. Already-completed rows keep their
    /// results; the rest of `data` is left partially processed. The
    /// runner and its pool stay usable.
    ///
    /// # Errors
    ///
    /// [`EngineError::Cancelled`] on cancellation, plus everything
    /// [`BatchRunner::run_rows`] can return.
    pub fn run_rows_with_cancel(
        &self,
        data: &mut [T],
        width: usize,
        cancel: &CancelToken,
    ) -> Result<RunStats, EngineError> {
        self.run_rows_ctl(data, width, Some(cancel))
    }

    /// Opens a streaming submission channel: rows go in one at a time via
    /// [`RowStream::push_row`], each returning a [`RowHandle`] that can be
    /// polled, waited on, or `await`ed independently, while the pool's
    /// workers drain rows concurrently in the background.
    ///
    /// The in-flight window defaults to `2 × threads` rows — enough to
    /// keep every worker busy while the producer prepares the next row,
    /// small enough that a slow consumer exerts backpressure instead of
    /// buffering the whole batch. Use [`BatchRunner::stream_with_window`]
    /// to pick a different bound.
    ///
    /// The stream occupies the pool until it is finished or dropped:
    /// blocking `run_rows` calls on the same runner queue behind it.
    /// Dropping the stream without calling [`RowStream::finish`] cancels
    /// rows still queued or in flight (their handles resolve to
    /// [`EngineError::Cancelled`]) and quiesces the workers.
    ///
    /// [`RowHandle`]: crate::RowHandle
    pub fn stream(&self) -> RowStream<T> {
        self.stream_with_window(2 * self.threads().max(1))
    }

    /// Like [`BatchRunner::stream`] with an explicit in-flight window
    /// (clamped to at least 1): `push_row` blocks while `window` rows are
    /// queued or being solved.
    pub fn stream_with_window(&self, window: usize) -> RowStream<T> {
        RowStream::launch(Arc::clone(self.pool()), self.task.clone(), window.max(1))
    }

    fn run_rows_ctl(
        &self,
        data: &mut [T],
        width: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<RunStats, EngineError> {
        let rows = self.task.row_count(data.len(), width)?;
        let threads = self.threads().max(1);
        if rows >= threads || rows == 0 {
            let mut ctl = RunControl::new();
            if let Some(token) = cancel {
                ctl = ctl.with_cancel(token);
            }
            run_rows(self.pool(), &self.task, data, width, &ctl)
        } else {
            // Few long rows: parallelize inside each row instead, through
            // the cached intra-row runner (correction table reused).
            self.run_long_rows(data, width, threads, cancel)
        }
    }

    /// Few long rows: chunked decoupled look-back inside each row via the
    /// cached runner (rebuilt only when the chunk size changes).
    fn run_long_rows(
        &self,
        data: &mut [T],
        width: usize,
        threads: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<RunStats, EngineError> {
        // Chunk dispatch, re-tuned for the register-blocked kernels (sweep
        // in `tune_long_rows`, recorded in EXPERIMENTS.md): per-chunk fixed
        // costs make chunks under ~4 Ki elements lose throughput outright,
        // and nothing improves past 64 Ki. Inside that band the correction
        // plan decides the sweet spot — dense plans stream k·chunk factor
        // words per chunk and prefer the small end, while decay-truncated
        // plans touch only the decayed prefix and keep gaining from larger
        // chunks. Probe the plan at the band's upper end (a cache hit on
        // every repeated call) to pick the side.
        let upper = (width / (threads * 2))
            .clamp(1 << 12, 1 << 16)
            .max(self.signature.order());
        let (probe, _) = plan::plan_for(&self.signature, PlanRequest::new::<T>(upper));
        let chunk_size = if probe.resets_carries(upper) {
            upper
        } else {
            upper.min(1 << 12).max(self.signature.order())
        };
        let mut cache = lock_recover(&self.inner);
        let rebuild = match cache.as_ref() {
            Some(inner) => inner.chunk_size != chunk_size,
            None => true,
        };
        if rebuild {
            *cache = Some(CachedInner {
                chunk_size,
                runner: ParallelRunner::with_config_and_pool(
                    self.signature.clone(),
                    RunnerConfig {
                        chunk_size,
                        threads,
                        ..Default::default()
                    },
                    Arc::clone(self.pool()),
                )?,
            });
        }
        let runner = &cache.as_ref().expect("cache filled above").runner;
        let mut stats = RunStats {
            threads: threads as u64,
            ..RunStats::default()
        };
        // The row index feeds the fault harness's `Row` site; without the
        // feature it is intentionally unused.
        #[cfg_attr(not(feature = "fault-inject"), allow(clippy::unused_enumerate_index))]
        for (_r, row) in data.chunks_mut(width).enumerate() {
            // Rows run sequentially on this thread, so the inner runner's
            // mid-run cancellation only covers the row in flight; check
            // between rows too so a cancelled batch stops promptly.
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(EngineError::Cancelled);
            }
            // The per-row dispatch happens on the calling thread, outside
            // any `pool.run`; guard it so an injected fault here still
            // honors the panics-become-errors contract.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-inject")]
                crate::fault::check(crate::fault::FaultSite::Row, 0, _r, None);
                runner.execute(row, cancel)
            }));
            match outcome {
                Ok(row_stats) => stats.absorb(&row_stats?),
                Err(payload) => {
                    return Err(WorkerPanic::from_payload(0, payload.as_ref()).into_engine_error())
                }
            }
        }
        Ok(stats)
    }
}

/// The cached intra-row runner, which shares the pool, goes first; the
/// pool then goes back to the idle list (`WorkerPool::release`).
impl<T> Drop for BatchRunner<T> {
    fn drop(&mut self) {
        *self.inner.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        if let Some(pool) = self.pool.take() {
            WorkerPool::release(pool);
        }
    }
}

/// The one whole-row dispatch loop, behind [`BatchRunner::run_rows`],
/// `VaryingRunner::run_rows` and `SegmentedRunner::run_rows`: rows of
/// `width` elements are claimed whole by the pool's workers and solved in
/// place through `task` (rows are independent, so there are no
/// cross-boundary inputs to stash and nothing to correct).
///
/// # Errors
///
/// The width checks of [`RowTask::row_count`], plus whatever the pool
/// run reports (worker panic, cancellation, deadline) — then `data` is
/// left partially processed.
pub(crate) fn run_rows<T: Element>(
    pool: &WorkerPool,
    task: &RowTask<T>,
    data: &mut [T],
    width: usize,
    ctl: &RunControl,
) -> Result<RunStats, EngineError> {
    task.row_count(data.len(), width)?;
    let recovered_before = pool.recovered_workers();
    let totals = Mutex::new(RunStats::default());
    for_each_chunk(
        pool,
        ctl,
        data,
        width,
        &totals,
        |worker, _width, abort, r, row, _held, tally| {
            absorb_row(
                tally,
                &task.row_stats(&task.apply(row, worker, r, Some(abort))),
            );
            true
        },
        // Rows owe nothing to a later claim.
        |_, _| {},
    )?;
    let mut stats = RunStats {
        threads: pool.width() as u64,
        workers_recovered: pool.recovered_workers() - recovered_before,
        ..task.base_stats(0)
    };
    stats.absorb(&totals.into_inner().unwrap_or_else(PoisonError::into_inner));
    Ok(stats)
}

/// Folds one row's stats into an aggregate over rows of one task, which
/// starts from the task's [`base_stats(0)`](RowTask::base_stats) and so
/// already counts the task's one plan-cache consult: the row's own
/// consult is not counted again.
pub(crate) fn absorb_row(total: &mut RunStats, row: &RunStats) {
    total.absorb(&RunStats {
        plan_cache_hits: 0,
        plan_cache_misses: 0,
        ..*row
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use plr_core::serial;
    use plr_core::validate::validate;

    fn reference<T: Element>(sig: &Signature<T>, data: &[T], width: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(data.len());
        for row in data.chunks(width) {
            out.extend(serial::run(sig, row));
        }
        out
    }

    #[test]
    fn many_rows_filtered_independently() {
        let sig: Signature<f32> = "0.2:0.8".parse().unwrap();
        let width = 64;
        let rows = 50;
        let data: Vec<f32> = (0..width * rows)
            .map(|i| ((i % 23) as f32) * 0.5 - 5.0)
            .collect();
        let mut got = data.clone();
        let runner = BatchRunner::new(sig.clone(), 4);
        let stats = runner.run_rows(&mut got, width).unwrap();
        assert_eq!(stats.chunks, rows as u64);
        validate(&reference(&sig, &data, width), &got, 1e-4).unwrap();
    }

    #[test]
    fn fir_rows_match_reference() {
        // A signature with a real map stage exercises the map on the
        // whole-rows path, timed inside the solve.
        let sig: Signature<f64> = "0.81,-1.62,0.81:1.6,-0.64".parse().unwrap();
        let width = 96;
        let rows = 40;
        let data: Vec<f64> = (0..width * rows)
            .map(|i| ((i % 19) as f64) * 0.3 - 2.5)
            .collect();
        let mut got = data.clone();
        let runner = BatchRunner::new(sig.clone(), 4);
        let stats = runner.run_rows(&mut got, width).unwrap();
        assert!(stats.solve_nanos > 0, "map and solve must be timed");
        assert_eq!(stats.fir_nanos, 0, "the map's time is inside the solve's");
        validate(&reference(&sig, &data, width), &got, 1e-9).unwrap();
    }

    #[test]
    fn few_long_rows_use_intra_row_parallelism() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let width = 100_000;
        let rows = 2;
        let data: Vec<i64> = (0..width * rows).map(|i| (i % 7) as i64 - 3).collect();
        let mut got = data.clone();
        let runner = BatchRunner::new(sig.clone(), 8);
        let stats = runner.run_rows(&mut got, width).unwrap();
        assert!(
            stats.lookback_hops > 0,
            "long rows must go through the look-back path"
        );
        assert_eq!(got, reference(&sig, &data, width));
    }

    #[test]
    fn repeated_long_row_calls_reuse_the_cached_runner() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let width = 100_000;
        let runner = BatchRunner::new(sig.clone(), 8);
        for _ in 0..3 {
            let data: Vec<i64> = (0..width * 2).map(|i| (i % 7) as i64 - 3).collect();
            let mut got = data.clone();
            runner.run_rows(&mut got, width).unwrap();
            assert_eq!(got, reference(&sig, &data, width));
        }
        let cache = lock_recover(&runner.inner);
        assert!(
            cache.is_some(),
            "the intra-row runner must be cached across calls"
        );
    }

    #[test]
    fn row_boundaries_reset_the_recurrence() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let mut data: Vec<i64> = vec![1; 12];
        BatchRunner::new(sig, 2).run_rows(&mut data, 4).unwrap();
        assert_eq!(data, vec![1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    fn rejects_mismatched_width() {
        let sig: Signature<i32> = "1:1".parse().unwrap();
        let mut data = vec![1i32; 10];
        assert!(BatchRunner::new(sig.clone(), 2)
            .run_rows(&mut data, 0)
            .is_err());
        assert!(BatchRunner::new(sig, 2).run_rows(&mut data, 3).is_err());
    }

    #[test]
    fn empty_batch_is_fine() {
        let sig: Signature<i32> = "1:1".parse().unwrap();
        let mut data: Vec<i32> = vec![];
        let stats = BatchRunner::new(sig, 2).run_rows(&mut data, 4).unwrap();
        assert_eq!(stats.chunks, 0);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn pre_cancelled_token_rejects_both_row_paths() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = BatchRunner::new(sig.clone(), 2);
        let token = CancelToken::new();
        token.cancel();
        // Many short rows (whole-rows path).
        let mut many: Vec<i64> = (0..64 * 8).map(|i| (i % 5) as i64).collect();
        match runner.run_rows_with_cancel(&mut many, 64, &token) {
            Err(EngineError::Cancelled) => {}
            other => panic!("whole-rows path: expected Cancelled, got {other:?}"),
        }
        // One long row (long-rows path).
        let mut long: Vec<i64> = (0..50_000).map(|i| (i % 5) as i64).collect();
        match runner.run_rows_with_cancel(&mut long, 50_000, &token) {
            Err(EngineError::Cancelled) => {}
            other => panic!("long-rows path: expected Cancelled, got {other:?}"),
        }
        // A fresh token on the same runner still validates.
        let data: Vec<i64> = (0..64 * 8).map(|i| (i % 5) as i64).collect();
        let mut got = data.clone();
        runner
            .run_rows_with_cancel(&mut got, 64, &CancelToken::new())
            .unwrap();
        assert_eq!(got, reference(&sig, &data, 64));
    }

    #[test]
    fn uncancelled_token_matches_plain_run_rows() {
        let sig: Signature<f64> = "0.2:0.8".parse().unwrap();
        let runner = BatchRunner::new(sig.clone(), 4);
        let width = 96;
        let data: Vec<f64> = (0..width * 20).map(|i| ((i % 11) as f64) - 5.0).collect();
        let mut got = data.clone();
        runner
            .run_rows_with_cancel(&mut got, width, &CancelToken::new())
            .unwrap();
        validate(&reference(&sig, &data, width), &got, 1e-9).unwrap();
    }
}
