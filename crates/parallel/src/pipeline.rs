//! The one chunk pipeline every chunked runner executes.
//!
//! The paper's Phase 2 is a single algorithm whatever the carry looks
//! like: chunks publish their local state, look back to the nearest
//! published global state, fix it forward through the local states in
//! between, correct themselves, and publish their own global state.
//! [`Pipeline`] implements that once — the `execute` prologue, the
//! look-back ticket loop, one look-back resolver over one spin-wait loop,
//! the abort / fault-site / `check_finite` plumbing and the run's
//! [`RunStats`] — generic over a [`CarryAlgebra`] that supplies the
//! per-chunk operations of one recurrence family. Its three impls sit
//! beside their runners: [`CorrectionPlan`] (constant coefficients,
//! `runner.rs`), [`SegmentedPlan`] (segmented inputs, `segmented.rs`) and
//! [`VaryingPlan`] (time-varying coefficients, `varying.rs`, the only one
//! that fuses chunks onto their history); DESIGN.md §13 tabulates what
//! each supplies.
//!
//! There is no separate map stage: an algebra whose signature has FIR
//! taps maps each chunk inside its solve — one pass where the plan fuses
//! the map into the SIMD kernel — reading the raw inputs left of the
//! chunk from a stash taken before any chunk runs.
//!
//! Progress: tickets are claimed in increasing order; every chunk
//! publishes something before it waits on anything (its local state, or
//! — chunk 0, reset and fused chunks — its global state); and every
//! walk's floor is a chunk that publishes its global state
//! unconditionally. The oldest in-flight chunk can therefore always
//! resolve, and spin waits are bounded by the pipeline depth (the pool
//! width).
//!
//! [`CorrectionPlan`]: plr_core::plan::CorrectionPlan
//! [`SegmentedPlan`]: plr_core::segmented::SegmentedPlan
//! [`VaryingPlan`]: plr_core::varying::VaryingPlan

use crate::pool::{
    lock_recover, resolve_threads, AbortSignal, CancelToken, RunControl, RunError, SendPtr,
    Tickets, WorkerPool,
};
use crate::runner::RunnerConfig;
use crate::stats::{fold_kernel, RunStats};
use plr_core::element::Element;
use plr_core::engine::MAX_INPUT_LEN;
use plr_core::error::EngineError;
use plr_core::kernel::KernelKind;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// A chunk solve's outcome.
pub(crate) struct Solved<T> {
    /// Abort-polled slices the solve ran.
    pub(crate) slices: u64,
    /// The state the chunk publishes ([`CarryAlgebra::local_state`], or
    /// the global state of a fused solve); `None` when the abort poll
    /// stopped the solve early.
    pub(crate) state: Option<Vec<T>>,
    /// The kernel class the solve ran, for an algebra whose chunks solve
    /// with different kernels; [`KernelKind::Unknown`] where the algebra
    /// reports its one kernel in [`CarryAlgebra::base_stats`].
    pub(crate) kernel: KernelKind,
}

/// The per-chunk operations of one recurrence family: everything the
/// [`Pipeline`] needs to know about its carry. Chunk `c` covers the
/// run's elements from `c·m` (`m` the configured chunk size); a *state*
/// is whatever the family carries across a chunk boundary.
pub(crate) trait CarryAlgebra<T: Element>: Sync {
    /// The input length every run must have (`None`: any length).
    fn bound_len(&self) -> Option<usize> {
        None
    }

    /// The plan-describing fields every run reports: plan kind, kernel,
    /// correction taps. The run's kernel also folds in what each chunk's
    /// [`Solved::kernel`] reports.
    fn base_stats(&self) -> RunStats;

    /// The raw inputs each chunk's map reads from across its left
    /// boundary, captured before any chunk is mapped (entry `c - 1`
    /// belongs to chunk `c`; empty when no map reaches back).
    fn stash(&self, _data: &[T]) -> Vec<Vec<T>> {
        Vec::new()
    }

    /// Maps (where the family has a map stage) and solves chunk `c` in
    /// place — from zero history (`history: None`, the decoupled local
    /// solve) or, for a fused chunk, from its real history — polling
    /// `keep_going` between slices. `prev_raw` is the chunk's
    /// [`stash`](Self::stash) entry (empty for chunk 0 or without one).
    fn solve(
        &self,
        c: usize,
        chunk: &mut [T],
        prev_raw: &[T],
        history: Option<&[T]>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> Solved<T>;

    /// The state a locally-solved chunk `c` publishes: its local state
    /// or, for a reset chunk, its (already final) global state.
    fn local_state(&self, c: usize, chunk: &[T]) -> Vec<T>;

    /// Fixes a predecessor's global state `prev` forward through chunk
    /// `c` (`len` elements) given the chunk's local state.
    fn fixup(&self, c: usize, prev: &[T], local: &[T], len: usize) -> Vec<T>;

    /// Corrects locally-solved chunk `c` in place with its predecessor's
    /// global state.
    fn correct(&self, c: usize, chunk: &mut [T], prev: &[T]);

    /// Whether chunk `c` holds a reset: its local solve already yields
    /// its global state, which it publishes instead of a local state.
    fn is_reset(&self, _c: usize) -> bool {
        false
    }

    /// Whether a raw chunk may skip its map and local solve, given the
    /// raw inputs its map reads before it (`prev_raw`). Sound only
    /// because the algebra maps and solves all-zero inputs to the zero
    /// state (`solve(0) == 0`); never asked of fused chunks.
    fn is_skippable(&self, _chunk: &[T], _prev_raw: &[T]) -> bool {
        false
    }

    /// Whether a chunk of `len` elements has its local state as its
    /// global state whatever precedes it (its correction cannot reach
    /// its own carries), so the chain resets there.
    fn carries_reset(&self, _len: usize) -> bool {
        false
    }

    /// Where a look-back from chunk `j` stops: the nearest chunk at or
    /// before `j` that publishes its global state without waiting.
    fn lookback_floor(&self, _j: usize) -> usize {
        0
    }

    /// Whether chunk `c` (`len` elements) has anything to correct.
    fn needs_correction(&self, _c: usize, _len: usize) -> bool {
        true
    }

    /// Fusion: the history chunk `c` may solve from directly, skipping
    /// its local publish, look-back and correction, given the run's
    /// `width` and a probe of its predecessor's published global state
    /// (only valid for `c > 0`). `None`: solve decoupled. Past chunk 0 a
    /// chunk may fuse only on a width-1 run: a look-back walk waits on
    /// the local states of the chunks past its start, which a fused chunk
    /// never publishes.
    fn fused_history<'a>(
        &self,
        _c: usize,
        _width: usize,
        _prev: impl FnOnce() -> Option<&'a Vec<T>>,
    ) -> Option<Vec<T>>
    where
        T: 'a,
    {
        None
    }
}

/// One chunked runner: a carry algebra (a precomputed plan), its
/// configuration, and a persistent pool leased on first use.
#[derive(Debug)]
pub(crate) struct Pipeline<A> {
    /// The algebra, shared with row tasks built from the same plan.
    pub(crate) plan: Arc<A>,
    pub(crate) config: RunnerConfig,
    /// Whether `plan` came from the shared plan cache; `None` for
    /// families that never consult it (both cache counters stay 0).
    cache_hit: Option<bool>,
    pool: OnceLock<Arc<WorkerPool>>,
    /// Whether `pool` was handed in ([`with_pool`](Self::with_pool)):
    /// its owner, not this pipeline, decides what becomes of it.
    inherited: bool,
}

impl<A> Pipeline<A> {
    pub(crate) fn new(plan: Arc<A>, config: RunnerConfig, cache_hit: Option<bool>) -> Self {
        Pipeline {
            plan,
            config,
            cache_hit,
            pool: OnceLock::new(),
            inherited: false,
        }
    }

    /// Runs on `pool` instead of leasing one of its own.
    pub(crate) fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        let _ = self.pool.set(pool);
        self.inherited = true;
        self
    }

    /// The configured worker count (resolving `0` to the CPU count).
    pub(crate) fn threads(&self) -> usize {
        resolve_threads(self.config.threads)
    }

    /// The persistent pool, leased on first use: an idle pool of the
    /// configured width when the process has one, else a new one
    /// ([`WorkerPool::lease`]).
    pub(crate) fn pool(&self) -> &Arc<WorkerPool> {
        self.pool.get_or_init(|| WorkerPool::lease(self.threads()))
    }

    /// A call's run control: the caller's cancel token plus the
    /// configured deadline, resolved once so the whole call spends a
    /// single budget.
    pub(crate) fn control(&self, cancel: Option<&CancelToken>) -> RunControl {
        let mut ctl = RunControl::new();
        if let Some(token) = cancel {
            ctl = ctl.with_cancel(token);
        }
        if let Some(budget) = self.config.deadline {
            ctl = ctl.with_deadline(budget);
        }
        ctl
    }

    /// [`execute`](Self::execute) on a copy of `input`.
    pub(crate) fn run<T: Element>(
        &self,
        input: &[T],
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<T>, EngineError>
    where
        A: CarryAlgebra<T>,
    {
        let mut data = input.to_vec();
        self.execute(&mut data, cancel)?;
        Ok(data)
    }

    /// Runs the recurrence over `data` in place: validates the length,
    /// then runs the look-back pipeline over its chunks.
    pub(crate) fn execute<T: Element>(
        &self,
        data: &mut [T],
        cancel: Option<&CancelToken>,
    ) -> Result<RunStats, EngineError>
    where
        A: CarryAlgebra<T>,
    {
        if let Some(expected) = self.plan.bound_len() {
            if data.len() != expected {
                return Err(EngineError::LengthMismatch {
                    expected,
                    got: data.len(),
                });
            }
        }
        if data.len() > MAX_INPUT_LEN {
            return Err(EngineError::InputTooLarge {
                len: data.len(),
                max: MAX_INPUT_LEN,
            });
        }
        let base = RunStats {
            plan_cache_hits: u64::from(self.cache_hit == Some(true)),
            plan_cache_misses: u64::from(self.cache_hit == Some(false)),
            ..self.plan.base_stats()
        };
        if data.is_empty() {
            // Report the worker count the run would have used.
            return Ok(RunStats {
                threads: self.threads() as u64,
                ..base
            });
        }
        let ctl = self.control(cancel);
        let pool = self.pool();
        let recovered_before = pool.recovered_workers();
        let run = Run::new(
            &*self.plan,
            data,
            self.config.chunk_size,
            self.config.check_finite,
        );
        let totals = Mutex::new(RunStats::default());
        run.lookback(data, pool, &ctl, &totals)?;
        let mut stats = RunStats {
            rows: 1,
            chunks: run.num_chunks as u64,
            threads: pool.width() as u64,
            workers_recovered: pool.recovered_workers() - recovered_before,
            ..base
        };
        stats.absorb(&totals.into_inner().unwrap_or_else(PoisonError::into_inner));
        Ok(stats)
    }
}

/// A leased pool goes back to the idle list when its runner drops
/// ([`WorkerPool::release`]); an inherited one stays with its owner.
impl<A> Drop for Pipeline<A> {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take().filter(|_| !self.inherited) {
            WorkerPool::release(pool);
        }
    }
}

/// Per-chunk state cells, published lock-free through [`OnceLock`].
#[derive(Default)]
struct Slot<T> {
    local: OnceLock<Vec<T>>,
    global: OnceLock<Vec<T>>,
}

/// Publishes a state, returning the published copy; each cell has
/// exactly one producer, its chunk's owner.
fn publish<T>(cell: &OnceLock<Vec<T>>, state: Vec<T>) -> &Vec<T> {
    let mut state = Some(state);
    let published = cell.get_or_init(|| state.take().expect("initialized once"));
    assert!(state.is_none(), "a chunk state is published once");
    published
}

/// One run's shared state.
struct Run<'a, T, A> {
    alg: &'a A,
    m: usize,
    n: usize,
    num_chunks: usize,
    stash: Vec<Vec<T>>,
    /// `check_finite`, in effect only for float elements.
    check_finite: bool,
    /// The first failed finiteness check, surfaced once the pool returns.
    failure: OnceLock<EngineError>,
}

impl<'a, T: Element, A: CarryAlgebra<T>> Run<'a, T, A> {
    fn new(alg: &'a A, data: &[T], m: usize, check_finite: bool) -> Self {
        Run {
            alg,
            m,
            n: data.len(),
            num_chunks: data.len().div_ceil(m),
            stash: alg.stash(data),
            check_finite: check_finite && T::IS_FLOAT,
            failure: OnceLock::new(),
        }
    }

    /// Elements in chunk `c`.
    fn len(&self, c: usize) -> usize {
        self.m.min(self.n - c * self.m)
    }

    /// The raw inputs chunk `c`'s map reads before it.
    fn prev_raw(&self, c: usize) -> &[T] {
        c.checked_sub(1)
            .and_then(|p| self.stash.get(p))
            .map_or(&[], Vec::as_slice)
    }

    /// Chunk `c`'s global state from its predecessor's and its own local
    /// state. Every path derives it this way — a look-back walk or a
    /// chunk publishing its own — so float runs agree bit for bit
    /// whichever path the schedule takes.
    fn advance(&self, c: usize, prev: &[T], local: &[T]) -> Vec<T> {
        let len = self.len(c);
        if self.alg.carries_reset(len) {
            local.to_vec()
        } else {
            self.alg.fixup(c, prev, local, len)
        }
    }

    /// The run's recorded check failure, if any.
    fn outcome(&self) -> Result<(), EngineError> {
        self.failure.get().map_or(Ok(()), |e| Err(e.clone()))
    }

    /// Passes `state` through when finite (or unchecked); otherwise
    /// records [`EngineError::NonFiniteCarry`] and aborts the run.
    fn finite(&self, c: usize, state: Vec<T>, abort: &AbortSignal) -> Option<Vec<T>> {
        if self.check_finite && !all_finite(&state) {
            let _ = self.failure.set(EngineError::NonFiniteCarry { chunk: c });
            abort.trigger();
            return None;
        }
        Some(state)
    }

    /// What the pipeline does to a claimed chunk first: the `Solve`
    /// fault site, the sparse skip or the map and solve, and the
    /// finiteness check of the state the chunk publishes. `None`: stop
    /// this worker (the solve was interrupted, or the check failed).
    fn settle(
        &self,
        _worker: usize,
        c: usize,
        chunk: &mut [T],
        history: Option<&[T]>,
        abort: &AbortSignal,
        tally: &mut RunStats,
    ) -> Option<Vec<T>> {
        let alg = self.alg;
        let prev_raw = self.prev_raw(c);
        #[cfg(feature = "fault-inject")]
        crate::fault::check(crate::fault::FaultSite::Solve, _worker, c, Some(abort));
        let state = if history.is_none() && alg.is_skippable(chunk, prev_raw) {
            tally.skipped_chunks += 1;
            alg.local_state(c, chunk)
        } else {
            // Time-sliced, so a cancel or deadline lands mid-chunk.
            let solved = timed(&mut tally.solve_nanos, || {
                alg.solve(c, chunk, prev_raw, history, &mut || !abort.is_aborted())
            });
            tally.solve_slices += solved.slices;
            tally.kernel = fold_kernel(tally.kernel, solved.kernel);
            solved.state?
        };
        tally.reset_chunks += u64::from(alg.is_reset(c));
        self.finite(c, state, abort)
    }

    /// The single-pass decoupled look-back pipeline.
    fn lookback(
        &self,
        data: &mut [T],
        pool: &WorkerPool,
        ctl: &RunControl,
        totals: &Mutex<RunStats>,
    ) -> Result<(), EngineError> {
        let alg = self.alg;
        let slots: Vec<Slot<T>> = (0..self.num_chunks).map(|_| Slot::default()).collect();
        for_each_chunk(
            pool,
            ctl,
            data,
            self.m,
            totals,
            |_worker, width, abort, c, chunk, tally| {
                let history = alg.fused_history(c, width, || slots[c - 1].global.get());
                let fused = history.is_some();
                let Some(state) = self.settle(_worker, c, chunk, history.as_deref(), abort, tally)
                else {
                    return false;
                };
                // Chunk 0, fused and reset chunks already know their global
                // state: publish it before any waiting, so successors never
                // wait on this chunk's walk. Everyone else publishes locals.
                let local = if c == 0 || fused || alg.is_reset(c) {
                    publish(&slots[c].global, state);
                    tally.fused_chunks += u64::from(fused);
                    if c == 0 || fused || !alg.needs_correction(c, chunk.len()) {
                        return true;
                    }
                    None
                } else {
                    Some(publish(&slots[c].local, state))
                };
                #[cfg(feature = "fault-inject")]
                crate::fault::check(crate::fault::FaultSite::Lookback, _worker, c, Some(abort));
                let start = Instant::now();
                let resolved = self.resolve(&slots, c - 1, abort, tally);
                tally.lookback_nanos += start.elapsed().as_nanos() as u64;
                // `None`: aborted while waiting on state that will never come.
                let Some(g) = resolved else { return false };
                timed(&mut tally.correct_nanos, || alg.correct(c, chunk, &g));
                // A reset chunk's global state is already out.
                let Some(local) = local else { return true };
                match self.finite(c, self.advance(c, &g, local), abort) {
                    Some(global) => {
                        publish(&slots[c].global, global);
                        true
                    }
                    None => false,
                }
            },
        )?;
        self.outcome()
    }

    /// Derives chunk `j`'s global state from published state: walks back
    /// to the nearest published global state (waiting at the floor if it
    /// gets there), then fixes forward through the local states of the
    /// chunks after it. Every chunk a walk meets past its start publishes
    /// a local state: chunk 0, fused and reset chunks, which publish only
    /// a global one, sit at or below the walk's floor (fusion past chunk
    /// 0 needs a width-1 run, where no walk runs concurrently).
    ///
    /// `None` when the run was aborted while waiting on state that will
    /// never be published.
    fn resolve(
        &self,
        slots: &[Slot<T>],
        j: usize,
        abort: &AbortSignal,
        tally: &mut RunStats,
    ) -> Option<Vec<T>> {
        let floor = self.alg.lookback_floor(j);
        if floor < j && self.alg.carries_reset(self.len(j)) {
            let local = spin(&mut tally.spin_waits, abort, || slots[j].local.get())?;
            tally.carry_resets += 1;
            tally.max_lookback_depth = tally.max_lookback_depth.max(1);
            return Some(local.clone());
        }
        let mut start = j;
        while slots[start].global.get().is_none() {
            if start == floor {
                spin(&mut tally.spin_waits, abort, || slots[floor].global.get())?;
                break;
            }
            start -= 1;
        }
        let mut g = slots[start]
            .global
            .get()
            .expect("checked or awaited above")
            .clone();
        tally.lookback_hops += 1;
        tally.max_lookback_depth = tally.max_lookback_depth.max((j - start + 1) as u64);
        for (h, slot) in slots.iter().enumerate().take(j + 1).skip(start + 1) {
            let local = spin(&mut tally.spin_waits, abort, || slot.local.get())?;
            g = self.advance(h, &g, local);
            tally.lookback_hops += 1;
        }
        Some(g)
    }
}

/// Whether every value widens to a finite `f64` (always true for
/// integers).
fn all_finite<T: Element>(state: &[T]) -> bool {
    state.iter().all(|v| v.to_f64().is_finite())
}

/// Spins (with yields) until `probe` finds published state, or `None`
/// once the run is aborted. The abort flag is polled only on the yield
/// slots (every 64th iteration), keeping the fast path a pure
/// `spin_loop`; the iterations are added to `spins`.
fn spin<R>(
    spins: &mut u64,
    abort: &AbortSignal,
    mut probe: impl FnMut() -> Option<R>,
) -> Option<R> {
    let mut tries = 0u64;
    loop {
        if let Some(v) = probe() {
            *spins += tries;
            return Some(v);
        }
        tries += 1;
        if tries.is_multiple_of(64) {
            if abort.is_aborted() {
                *spins += tries;
                return None;
            }
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Times one closure, adding the elapsed nanoseconds to `slot`.
pub(crate) fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_nanos() as u64;
    out
}

/// Hands every `m`-element chunk of `data` (the last one ragged) to
/// `work` exactly once, on whichever pool worker claims its ticket
/// (claims are strictly increasing). `work(worker, width, abort, index,
/// chunk, tally)`, given the run's width, returns `false` to stop its
/// worker; that, like finding the run aborted, counts in
/// [`RunStats::aborts`]. Each worker tallies into its own [`RunStats`],
/// folded into `totals` once it is done.
pub(crate) fn for_each_chunk<T: Element>(
    pool: &WorkerPool,
    ctl: &RunControl,
    data: &mut [T],
    m: usize,
    totals: &Mutex<RunStats>,
    work: impl Fn(usize, usize, &AbortSignal, usize, &mut [T], &mut RunStats) -> bool + Sync,
) -> Result<(), EngineError> {
    let n = data.len();
    let tickets = Tickets::new(n.div_ceil(m));
    let base = SendPtr::new(data.as_mut_ptr());
    let (tickets, work) = (&tickets, &work);
    pool.run_sized(ctl, |width| {
        move |worker, abort: &AbortSignal| {
            let mut tally = RunStats::default();
            while let Some(c) = tickets.claim() {
                // SAFETY: tickets are unique, so chunk `c` is exclusively
                // ours; `data` outlives `run_sized`, which blocks until
                // every worker finishes, even when one of them panics.
                #[allow(unsafe_code)]
                let chunk = unsafe {
                    std::slice::from_raw_parts_mut(base.ptr().add(c * m), m.min(n - c * m))
                };
                if abort.is_aborted() || !work(worker, width, abort, c, chunk, &mut tally) {
                    tally.aborts += 1;
                    break;
                }
            }
            lock_recover(totals).absorb(&tally);
        }
    })
    .map_err(RunError::into_engine_error)
}

/// The public methods every chunked runner shares, forwarding to its
/// `pipeline: Pipeline<_>` field: the configuration accessors and the
/// four run entry points. Expanded inside each runner's `impl<T: Element>`
/// block, where `EngineError`, `CancelToken`, `RunStats` and
/// `RunnerConfig` are in scope.
macro_rules! runner_methods {
    () => {
        /// The configured worker count (resolving `0` to the CPU count).
        pub fn threads(&self) -> usize {
            self.pipeline.threads()
        }

        /// The runner's configuration.
        pub fn config(&self) -> &RunnerConfig {
            &self.pipeline.config
        }

        /// Computes the recurrence over `input`, allocating the output.
        /// The input is copied into the output before the run starts, so
        /// the copy comes before the run's first abort poll: a cancel or
        /// deadline lands only after it.
        ///
        /// # Errors
        ///
        /// Returns [`EngineError::LengthMismatch`] when the runner binds an
        /// input length (varying and segmented runners) and `input` does
        /// not have it, [`EngineError::InputTooLarge`] beyond 2^30
        /// elements, [`EngineError::WorkerPanicked`] when a worker (or the
        /// calling thread) panicked mid-run, [`EngineError::NonFiniteCarry`]
        /// when [`RunnerConfig::check_finite`] is on and a chunk produced a
        /// NaN or infinite carry, and [`EngineError::DeadlineExceeded`] when
        /// [`RunnerConfig::deadline`] is set and the run outlived it. On
        /// error the pool survives and the runner stays usable.
        pub fn run(&self, input: &[T]) -> Result<Vec<T>, EngineError> {
            self.pipeline.run(input, None)
        }

        /// Like [`run`](Self::run), but observing a caller-held
        /// [`CancelToken`]: cancelling any clone of `cancel` — before the
        /// call or while it is executing — aborts the run cooperatively
        /// (the same bail-out paths a worker panic uses; even carry
        /// spin-waits notice within one poll interval) and the call
        /// returns [`EngineError::Cancelled`]. The runner and its pool stay
        /// fully usable afterwards. As in [`run`](Self::run), the input
        /// copy comes before the first abort poll; a caller that needs
        /// the cancel to land sooner passes its own buffer to
        /// [`run_in_place_with_cancel`](Self::run_in_place_with_cancel).
        ///
        /// # Errors
        ///
        /// [`EngineError::Cancelled`] on cancellation, plus everything
        /// [`run`](Self::run) can return.
        pub fn run_with_cancel(
            &self,
            input: &[T],
            cancel: &CancelToken,
        ) -> Result<Vec<T>, EngineError> {
            self.pipeline.run(input, Some(cancel))
        }

        /// Computes the recurrence in place, returning runtime statistics.
        ///
        /// # Errors
        ///
        /// See [`run`](Self::run); on error `data` is left partially
        /// processed.
        pub fn run_in_place(&self, data: &mut [T]) -> Result<RunStats, EngineError> {
            self.pipeline.execute(data, None)
        }

        /// In-place variant of [`run_with_cancel`](Self::run_with_cancel).
        ///
        /// # Errors
        ///
        /// See [`run_with_cancel`](Self::run_with_cancel); on error `data`
        /// is left partially processed.
        pub fn run_in_place_with_cancel(
            &self,
            data: &mut [T],
            cancel: &CancelToken,
        ) -> Result<RunStats, EngineError> {
            self.pipeline.execute(data, Some(cancel))
        }
    };
}
pub(crate) use runner_methods;

/// The whole-row methods of the runners whose plan binds the input
/// length (varying and segmented), given the [`RowTask`](crate::RowTask)
/// constructor for their plan. Rows go through the crate's one whole-row
/// dispatch loop and [`RowStream`](crate::RowStream).
macro_rules! bound_row_methods {
    ($task:path) => {
        /// Applies the recurrence to each row of a row-major matrix in
        /// place: every row is an independent input under the runner's
        /// plan, so `width` must equal the plan's bound length. Rows are
        /// distributed whole across the pool through the same
        /// [`RowTask`](crate::RowTask) dispatch the constant batch runner
        /// and the streaming layer use.
        ///
        /// # Errors
        ///
        /// Returns [`EngineError::UnsupportedSignature`] when `width == 0`
        /// or does not divide the data length, [`EngineError::LengthMismatch`]
        /// when `width` is not the plan's bound length, and
        /// [`EngineError::WorkerPanicked`] when a worker panicked mid-run —
        /// the pool survives and the runner stays usable, but `data` is
        /// left partially processed.
        pub fn run_rows(&self, data: &mut [T], width: usize) -> Result<RunStats, EngineError> {
            self.run_rows_ctl(data, width, None)
        }

        /// Like [`run_rows`](Self::run_rows), but observing a caller-held
        /// [`CancelToken`] (cancelling aborts mid-row; completed rows keep
        /// their results).
        ///
        /// # Errors
        ///
        /// [`EngineError::Cancelled`] on cancellation, plus everything
        /// [`run_rows`](Self::run_rows) can return.
        pub fn run_rows_with_cancel(
            &self,
            data: &mut [T],
            width: usize,
            cancel: &CancelToken,
        ) -> Result<RunStats, EngineError> {
            self.run_rows_ctl(data, width, Some(cancel))
        }

        fn run_rows_ctl(
            &self,
            data: &mut [T],
            width: usize,
            cancel: Option<&CancelToken>,
        ) -> Result<RunStats, EngineError> {
            crate::batch::run_rows(
                self.pipeline.pool(),
                &$task(Arc::clone(&self.pipeline.plan)),
                data,
                width,
                &self.pipeline.control(cancel),
            )
        }

        /// Opens a streaming submission channel for independent rows
        /// under this runner's plan — the exact machinery of
        /// [`BatchRunner::stream`](crate::BatchRunner::stream)
        /// (backpressure window, per-row handles, cancel/deadline
        /// semantics). A pushed row without the plan's bound length is not
        /// queued: its handle resolves to [`EngineError::LengthMismatch`].
        pub fn stream(&self) -> RowStream<T> {
            self.stream_with_window(2 * self.threads().max(1))
        }

        /// Like [`stream`](Self::stream) with an explicit in-flight window
        /// (clamped to at least 1).
        pub fn stream_with_window(&self, window: usize) -> RowStream<T> {
            RowStream::launch(
                Arc::clone(self.pipeline.pool()),
                $task(Arc::clone(&self.pipeline.plan)),
                window.max(1),
            )
        }
    };
}
pub(crate) use bound_row_methods;

#[cfg(test)]
mod tests {
    //! Algebra laws: the facts the pipeline relies on generically, checked
    //! for each algebra over exact (wrapping) `i64` arithmetic.

    use super::*;
    use plr_core::plan::{CorrectionPlan, PlanRequest};
    use plr_core::segmented::{SegmentedPlan, Segments};
    use plr_core::signature::Signature;
    use plr_core::varying::{VaryingPlan, VaryingSignature};
    use proptest::prelude::*;

    /// Checks, for every chunk of `input` under `alg` (chunk size `m`,
    /// order `k`):
    /// 1. an all-zero chunk with no raw inputs before it maps and solves
    ///    to an all-zero chunk and zero state;
    /// 2. fixing a zero predecessor state forward returns the chunk's
    ///    local state unchanged;
    /// 3. resolving a chunk by look-back from any admissible published
    ///    global state gives the state the sequential chain derives.
    fn check_laws<A: CarryAlgebra<i64>>(
        alg: &A,
        input: &[i64],
        m: usize,
        k: usize,
    ) -> Result<(), TestCaseError> {
        let run = Run::new(alg, input, m, false);
        let mut data = input.to_vec();
        let mut locals = Vec::with_capacity(run.num_chunks);
        for c in 0..run.num_chunks {
            let len = run.len(c);
            let chunk = &mut data[c * m..c * m + len];
            let local = alg
                .solve(c, chunk, run.prev_raw(c), None, &mut || true)
                .state
                .unwrap();

            let mut zeros = vec![0i64; len];
            let zero_state = alg
                .solve(c, &mut zeros, &[], None, &mut || true)
                .state
                .unwrap();
            prop_assert!(zeros.iter().all(|&v| v == 0), "chunk {c}: solve(0) != 0");
            prop_assert!(zero_state.iter().all(|&v| v == 0), "chunk {c}: state");
            prop_assert_eq!(alg.local_state(c, &zeros), zero_state, "chunk {}", c);

            if !alg.is_reset(c) {
                prop_assert_eq!(
                    alg.fixup(c, &vec![0; k], &local, len),
                    local.clone(),
                    "chunk {}",
                    c
                );
            }
            locals.push(local);
        }

        // The sequential reference: each global state from its
        // predecessor's, chunk by chunk.
        let mut globals: Vec<Vec<i64>> = Vec::with_capacity(run.num_chunks);
        for (c, local) in locals.iter().enumerate() {
            let g = match globals.last() {
                Some(prev) if !alg.is_reset(c) => run.advance(c, prev, local),
                _ => local.clone(),
            };
            globals.push(g);
        }
        let abort = AbortSignal::default();
        for j in 0..run.num_chunks {
            for s in alg.lookback_floor(j)..=j {
                // Only `s` has published its global state; every chunk
                // past it has published its local state, as in a run
                // whose workers raced ahead of every walk.
                let slots: Vec<Slot<i64>> = (0..run.num_chunks).map(|_| Slot::default()).collect();
                publish(&slots[s].global, globals[s].clone());
                for h in (s + 1).max(1)..=j {
                    publish(&slots[h].local, locals[h].clone());
                }
                if s == j && j > 0 && !alg.is_reset(j) {
                    publish(&slots[j].local, locals[j].clone());
                }
                let mut tally = RunStats::default();
                let got = run.resolve(&slots, j, &abort, &mut tally).unwrap();
                prop_assert_eq!(&got, &globals[j], "chunk {} from {}", j, s);
            }
        }
        Ok(())
    }

    /// A signature with the given taps, trailing zeros bumped to 1 so the
    /// stated lengths hold.
    fn signature(mut ff: Vec<i64>, mut fb: Vec<i64>) -> Signature<i64> {
        for taps in [&mut ff, &mut fb] {
            if let Some(last @ 0) = taps.last_mut() {
                *last = 1;
            }
        }
        Signature::new(ff, fb).unwrap()
    }

    /// Inputs with zero runs, so whole chunks are often all zero.
    fn sparse_input(values: Vec<i64>) -> Vec<i64> {
        values
            .into_iter()
            .enumerate()
            .map(|(i, v)| if (i / 24) % 3 == 0 { v } else { 0 })
            .collect()
    }

    /// Every global state is derived the same way whichever path a
    /// schedule takes, so float runs are bit-identical at every pool
    /// width, run after run. The varying signature whose chunks never
    /// decay runs only from width 2: at width 1 its chunks fuse, solving
    /// from real history instead of correcting, which rounds differently.
    /// The one whose chunks past the first all truncate, its ragged tail
    /// included, agrees at width 1 too: there a truncated float chunk is
    /// solved from its history with the look-back path's arithmetic.
    #[test]
    fn float_runs_agree_bit_for_bit_across_thread_counts() {
        use crate::{ParallelRunner, RunnerConfig, SegmentedRunner, VaryingRunner};
        let n = 40_000;
        let input: Vec<f64> = (0..n).map(|i| ((i * 29 % 19) as f64) * 0.1 - 0.9).collect();
        let gates: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 7 % 11) as f64) * 0.04).collect();
        let sig: Signature<f64> = "0.04:1.6,-0.64".parse().unwrap();
        let segments = Segments::uniform(3000, n);
        // Gates in [0.02, 0.14]: every chunk's transition underflows within
        // a few hundred elements, well inside the 600-element tail.
        let (trunc_chunk, trunc_n) = (2048, 9 * 2048 + 600);
        let trunc_sig = VaryingSignature::first_order(
            (0..trunc_n)
                .map(|i| 0.02 + ((i * 7 % 11) as f64) * 0.012)
                .collect(),
        )
        .unwrap();
        let plan = VaryingPlan::build(trunc_sig.clone(), trunc_chunk).unwrap();
        for c in 1..plan.num_chunks() {
            let len = trunc_chunk.min(trunc_n - c * trunc_chunk);
            assert!(plan.correction_len(c) < len, "chunk {c} truncates");
        }
        let runs = |threads| {
            let config = RunnerConfig {
                chunk_size: 512,
                threads,
                ..RunnerConfig::default()
            };
            let constant = ParallelRunner::with_config(sig.clone(), config).unwrap();
            let segmented =
                SegmentedRunner::with_config(sig.clone(), segments.clone(), n, config).unwrap();
            let varying = VaryingRunner::with_config(
                VaryingSignature::first_order(gates.clone()).unwrap(),
                config,
            )
            .unwrap();
            let truncating = VaryingRunner::with_config(
                trunc_sig.clone(),
                RunnerConfig {
                    chunk_size: trunc_chunk,
                    ..config
                },
            )
            .unwrap();
            [
                constant.run(&input).unwrap(),
                segmented.run(&input).unwrap(),
                varying.run(&input).unwrap(),
                truncating.run(&input[..trunc_n]).unwrap(),
            ]
            .map(|o| o.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let [constant, segmented, varying, truncating] = runs(2);
        for threads in [1, 2, 4] {
            for _ in 0..3 {
                let [c, s, v, t] = runs(threads);
                assert!(c == constant, "constant at {threads} threads");
                assert!(s == segmented, "segmented at {threads} threads");
                if threads > 1 {
                    assert!(v == varying, "varying at {threads} threads");
                }
                assert!(t == truncating, "truncating varying at {threads} threads");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn constant_algebra_laws(
            ff in proptest::collection::vec(-3i64..=3, 1..4),
            fb in proptest::collection::vec(-2i64..=2, 1..4),
            values in proptest::collection::vec(-9i64..=9, 1..300),
            m in 4usize..40,
        ) {
            let sig = signature(ff, fb);
            let k = sig.order();
            let plan = CorrectionPlan::build(&sig, PlanRequest::new::<i64>(m));
            check_laws(&plan, &sparse_input(values), m, k)?;
        }

        #[test]
        fn segmented_algebra_laws(
            ff in proptest::collection::vec(-3i64..=3, 1..4),
            fb in proptest::collection::vec(-2i64..=2, 1..4),
            values in proptest::collection::vec(-9i64..=9, 1..300),
            m in 4usize..40,
            starts in proptest::collection::vec(1usize..300, 0..8),
        ) {
            let sig = signature(ff, fb);
            let k = sig.order();
            let input = sparse_input(values);
            let mut starts = starts;
            starts.sort_unstable();
            starts.dedup();
            let segments = Segments::from_starts(starts).unwrap();
            let plan = SegmentedPlan::build(&sig, segments, input.len(), m).unwrap();
            check_laws(&plan, &input, m, k)?;
        }

        #[test]
        fn varying_algebra_laws(
            k in 1usize..4,
            coeffs in proptest::collection::vec(-2i64..=2, 900..901),
            values in proptest::collection::vec(-9i64..=9, 1..300),
            m in 4usize..40,
        ) {
            // No offsets: an affine offset makes solve(0) nonzero, which is
            // why the varying algebra never skips.
            let n = values.len();
            let sig = VaryingSignature::new(k, coeffs[..n * k].to_vec()).unwrap();
            let plan = VaryingPlan::build(sig, m).unwrap();
            check_laws(&plan, &values, m, k)?;
        }
    }
}
