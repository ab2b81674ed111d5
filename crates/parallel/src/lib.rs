//! # plr-parallel
//!
//! A real multithreaded CPU runtime for linear recurrences — the paper's
//! chunked decoupled-look-back algorithm mapped onto the hierarchy this
//! reproduction environment actually has (CPU threads instead of GPU
//! blocks). Within a chunk there are no lanes, so the local solve is
//! serial (the degenerate form of Phase 1); across chunks the runtime is
//! exactly the paper's Phase 2: local carries published early, variable
//! look-back with cheap fix-ups, bounded spin waits.
//!
//! ## One chunk pipeline, three carry algebras
//!
//! Phase 2 is one algorithm whatever the carry looks like, so the crate
//! implements it once: a private pipeline module owns the run prologue,
//! the look-back ticket loop, the two-pass strategy, the carry resolver
//! and its spin wait, abort and `check_finite` handling and the
//! [`RunStats`], generic over a *carry algebra* that supplies the
//! per-chunk operations. The three chunked runners are thin constructors
//! over it:
//!
//! - [`ParallelRunner`] — constant coefficients: the state is a chunk's
//!   `k` carries, fixed forward and corrected with the n-nacci factors of
//!   a [`CorrectionPlan`](plr_core::plan::CorrectionPlan).
//! - [`SegmentedRunner`] — the same carries, clipped at segment
//!   boundaries: a chunk holding a boundary publishes its global carries
//!   at once and floors every later look-back; all-zero chunks skip their
//!   local solve.
//! - [`VaryingRunner`] — time-varying coefficients: the state crosses a
//!   chunk through its affine map, and a chunk whose predecessor is
//!   already resolved solves from real history instead (fusion).
//!
//! Both [`Strategy`] variants, cancellation, deadlines, `check_finite`,
//! fault injection and the counters behave the same for all three.
//! Whole-row work solves rows through one [`RowTask`]: blocking
//! [`BatchRunner::run_rows`] and the varying and segmented `run_rows` in
//! one dispatch loop, and every queued row — a [`RowStream`]'s, or a
//! `plr-service` shard's — through one drain run ([`Drain`]) and one
//! per-row executor, [`RowTask::execute`].
//!
//! ## Execution model: the persistent worker pool
//!
//! The paper's Phase 2 pipeline overlaps carry propagation with local
//! solves on execution units that are *already resident* — GPU blocks
//! scheduled once per kernel, not once per chunk. This crate mirrors that
//! with a persistent [`pool::WorkerPool`]:
//!
//! - **Spawn once, run many.** Every runner lazily spawns its workers on
//!   the first run and parks them on a condvar between calls; repeated
//!   runs pay a wake-up, not a spawn. The calling thread participates as
//!   worker 0, so one-thread configs run inline with zero synchronization.
//! - **Ticket scheduling.** Within a run, workers claim chunk indices
//!   from an atomic ticket counter. Claims are strictly increasing, which
//!   preserves the decoupled look-back progress argument: when a worker
//!   waits on a predecessor's carries, the predecessor's owner is already
//!   running, and every walk bottoms out at a chunk that publishes
//!   unconditionally. At most `pool width` chunks are in flight, so
//!   look-back depth — the paper's dynamic `c` — is bounded by the worker
//!   count.
//! - **In-place map stage.** Signatures with a feed-forward part apply
//!   the FIR filter in place, fused into the same chunk pass as the local
//!   solve: each chunk's few cross-boundary inputs are stashed up front,
//!   and the chunk is mapped right-to-left so every read still sees
//!   original input. No second full-size buffer, no copy-back.
//! - **Shared infrastructure.** [`BatchRunner`] runs whole rows on the
//!   same pool, and its intra-row fallback caches a [`ParallelRunner`]
//!   (correction table included) across `run_rows` calls, rebuilding only
//!   when the row geometry changes the chunk size.
//!
//! Per-phase wall times (FIR map, local solve, look-back, correction) are
//! accumulated per worker and reported through [`RunStats`].
//!
//! ## Failure & cancellation model
//!
//! The execution layer fails by returning errors, never by hanging or by
//! unwinding across the pool's lifetime-erasure boundary:
//!
//! - **Panics become errors.** Every job invocation runs under
//!   `catch_unwind`; the first panic (on a spawned worker *or* on the
//!   calling thread) trips a per-run [`pool::AbortSignal`], every ticket
//!   loop and carry spin-wait bails out at its next poll, and
//!   `run`/`run_in_place`/`run_rows` return
//!   [`EngineError::WorkerPanicked`](plr_core::error::EngineError::WorkerPanicked).
//! - **Runs are cancellable from outside.** A caller-held, cloneable
//!   [`CancelToken`] aborts in-flight runs through the same cooperative
//!   bail-out paths ([`ParallelRunner::run_with_cancel`],
//!   [`BatchRunner::run_rows_with_cancel`], or any [`RunControl`] at the
//!   pool layer); the call returns
//!   [`EngineError::Cancelled`](plr_core::error::EngineError::Cancelled).
//! - **Runs are deadline-bounded.** [`RunnerConfig::deadline`] arms a
//!   watchdog thread *inside the pool* that converts a run outliving its
//!   wall-clock budget — a wedged stage, an OS-starved worker, a hung
//!   spin-wait — into
//!   [`EngineError::DeadlineExceeded`](plr_core::error::EngineError::DeadlineExceeded)
//!   instead of a hang.
//! - **Submission can be non-blocking.** [`WorkerPool::submit`] hands the
//!   job to a donated driver thread (standing in for the caller's
//!   worker-0 role) and returns a [`RunHandle`] whose completion is
//!   signalled — poll it, wait with a timeout, register a waker, or
//!   `await` it (the handle implements `IntoFuture`). Dropping an
//!   unfinished handle cancels the run and blocks until it quiesces.
//! - **Rows can be streamed.** [`BatchRunner::stream`] opens a
//!   [`RowStream`]: rows go in one at a time under a bounded
//!   backpressure window, each returning a [`RowHandle`] with its own
//!   result, [`RunStats`], cancel token, and deadline; a failed row
//!   resolves only its own handle. Row and run handles share one
//!   first-completion-wins completion cell, which the [`stream`]
//!   module's runtime-agnostic `Future` adapters ([`RowFuture`],
//!   [`RunFuture`], [`block_on`]) poll.
//! - **The pool survives.** Worker threads outlive job panics; a worker
//!   that genuinely dies is respawned lazily at the next submission, and
//!   threads that failed to spawn in the first place are retried there
//!   too ([`RunStats::threads`] reports the effective width). Panic,
//!   cancel, and deadline outcomes are tallied in
//!   [`PoolCounters`].
//! - **Opt-in value validation.** [`RunnerConfig::check_finite`] aborts
//!   float runs whose carries go NaN/Inf instead of propagating garbage
//!   through the look-back chain.
//! - **Deterministic fault injection.** The `fault-inject` cargo feature
//!   compiles a process-global [`fault::FaultPlan`] harness that can kill
//!   or stall any pipeline stage (by chunk, worker, or call count) — plus
//!   batch-row dispatch and handle waits — to test all of the above; its
//!   consult sites are inert unless a plan is armed.
//!
//! When several causes coincide, a recorded panic always wins; otherwise
//! the first-tripped abort reason decides between cancelled and
//! deadline-exceeded (see `pool`'s module docs for the full precedence
//! rules).
//!
//! ```
//! use plr_parallel::{ParallelRunner, RunnerConfig};
//! use plr_core::signature::Signature;
//!
//! let sig: Signature<i64> = "(1: 1)".parse()?; // prefix sum
//! let runner = ParallelRunner::with_config(
//!     sig,
//!     RunnerConfig { chunk_size: 1 << 14, threads: 4, ..Default::default() },
//! )?;
//! // Repeated calls reuse the same warm worker threads.
//! assert_eq!(runner.run(&[1, 2, 3, 4])?, vec![1, 3, 6, 10]);
//! assert_eq!(runner.run(&[2, 2, 2, 2])?, vec![2, 4, 6, 8]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
mod drain;
#[cfg(feature = "fault-inject")]
pub mod fault;
mod pipeline;
pub mod pool;
pub mod retry;
pub mod runner;
pub mod segmented;
pub mod stats;
pub mod stream;
pub mod varying;

pub use batch::{BatchRunner, RowTask};
pub use drain::{Drain, DrainQueue};
pub use pool::{
    resolve_threads, AbortReason, AbortSignal, CancelToken, RunControl, RunError, RunHandle,
    WorkerPanic, WorkerPool,
};
pub use retry::{retry_with_backoff, Backoff, RetryOutcome};
pub use runner::{ParallelRunner, RunnerConfig, Strategy};
pub use segmented::SegmentedRunner;
pub use stats::{PoolCounters, RunStats};
pub use stream::{block_on, PushError, RowFuture, RowHandle, RowResolver, RowStream, RunFuture};
pub use varying::VaryingRunner;
