//! The constant-coefficient runner: chunked decoupled look-back on real
//! threads.
//!
//! This is the paper's algorithm mapped onto the parallelism this
//! reproduction environment actually has — CPU threads. [`ParallelRunner`]
//! is a thin constructor over the crate's one chunk pipeline (the private
//! `pipeline` module), whose carry algebra here is the [`CorrectionPlan`]:
//! workers claim chunks in order from an atomic ticket counter, map and
//! solve their chunk locally — one pass where the plan fuses the FIR map
//! into the SIMD solve ([`CorrectionPlan::map_solve_sliced`];
//! cross-boundary raw inputs are stashed up front) — publish its `k`
//! local carries, derive the predecessor's *global* carries by variable
//! look-back with `O(k²)` n-nacci fix-ups, correct the chunk with the
//! precomputed factors, and publish their own global carries. A
//! decay-truncated plan whose correction cannot reach a chunk's own
//! carries resets the look-back chain there. The same pipeline, over
//! other algebras, runs [`SegmentedRunner`](crate::SegmentedRunner) and
//! [`VaryingRunner`](crate::VaryingRunner).

use crate::pipeline::{runner_methods, timed, CarryAlgebra, Held, Pipeline, Solved};
use crate::pool::{CancelToken, WorkerPool};
use crate::stats::RunStats;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::kernel::KernelKind;
use plr_core::nacci::carries_of;
use plr_core::plan::{self, CorrectionPlan, PlanMode, PlanRequest};
use plr_core::signature::Signature;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`ParallelRunner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Elements per chunk (one chunk is one unit of work). Must be at
    /// least the recurrence order.
    pub chunk_size: usize,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Opt-in finiteness validation for float runs: after each chunk's
    /// local solve and correction, scan its `k` carries for NaN/Inf and
    /// abort the run with [`EngineError::NonFiniteCarry`] instead of
    /// silently propagating garbage through the look-back chain. Only
    /// the carries are scanned (`O(k)` per chunk, off the element-wise
    /// hot path); a no-op for integer elements. Default `false`. Without
    /// it, a [`crate::VaryingRunner`] carries a non-finite state only
    /// into the first `d_c` outputs of a chunk whose transition
    /// underflows (see its docs).
    pub check_finite: bool,
    /// Wall-clock budget per `run` call, checked by every poll of the
    /// run's abort signal: a run that outlives it — even one wedged in a
    /// spin-wait or starved by the OS — is aborted cooperatively at its
    /// next poll and returns [`EngineError::DeadlineExceeded`] instead of
    /// hanging. One budget covers the whole call (every chunk of the
    /// pipeline). Default `None` (unbounded).
    pub deadline: Option<Duration>,
    /// Correction-plan mode: [`PlanMode::Auto`] (default) picks the
    /// cheapest sound strategy per factor list through the shared plan
    /// cache; [`PlanMode::Dense`] forces the unspecialized full-table
    /// path (the differential-testing and benchmarking baseline).
    pub plan: PlanMode,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            chunk_size: 1 << 16,
            threads: 0,
            check_finite: false,
            deadline: None,
            plan: PlanMode::default(),
        }
    }
}

/// A multithreaded executor for one signature (factors precomputed once,
/// worker threads spawned once and reused across runs).
///
/// # Examples
///
/// ```
/// use plr_parallel::ParallelRunner;
/// use plr_core::signature::Signature;
///
/// let sig: Signature<i64> = "1 : 2, -1".parse()?;
/// let runner = ParallelRunner::new(sig)?;
/// let y = runner.run(&[1, 1, 1, 1])?;
/// assert_eq!(y, vec![1, 3, 6, 10]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ParallelRunner<T> {
    /// The cached correction plan (factor table, decay-truncated when
    /// sound; per-list strategies; FIR and local-solve kernels) driving
    /// the shared pipeline. Its pool may be inherited from a
    /// [`crate::BatchRunner`] so both share one set of threads.
    pipeline: Pipeline<CorrectionPlan<T>>,
}

impl<T: Element> ParallelRunner<T> {
    /// Creates a runner with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`ParallelRunner::with_config`].
    pub fn new(signature: Signature<T>) -> Result<Self, EngineError> {
        Self::with_config(signature, RunnerConfig::default())
    }

    /// Creates a runner with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidChunkSize`] when the chunk size is
    /// zero or smaller than the recurrence order (a chunk must hold all
    /// `k` published carries).
    pub fn with_config(signature: Signature<T>, config: RunnerConfig) -> Result<Self, EngineError> {
        if config.chunk_size == 0 || config.chunk_size < signature.order() {
            return Err(EngineError::InvalidChunkSize {
                chunk_size: config.chunk_size,
            });
        }
        let req = PlanRequest {
            mode: config.plan,
            ..PlanRequest::new::<T>(config.chunk_size)
        };
        let (plan, cache_hit) = plan::plan_for(&signature, req);
        Ok(ParallelRunner {
            pipeline: Pipeline::new(plan, config, Some(cache_hit)),
        })
    }

    /// Like [`ParallelRunner::with_config`], but executing on an existing
    /// pool instead of leasing one of its own. The pool stays its
    /// owner's: this runner never hands it to the idle list.
    pub(crate) fn with_config_and_pool(
        signature: Signature<T>,
        config: RunnerConfig,
        pool: Arc<WorkerPool>,
    ) -> Result<Self, EngineError> {
        let runner = Self::with_config(signature, config)?;
        Ok(ParallelRunner {
            pipeline: runner.pipeline.with_pool(pool),
        })
    }

    runner_methods!();

    /// The correction plan this runner executes (strategy selection,
    /// truncation depth, kernels) — shared through the global plan cache.
    pub fn plan(&self) -> &CorrectionPlan<T> {
        &self.pipeline.plan
    }

    /// The in-place entry point every public run method (and the batch
    /// runner's long-rows path) goes through.
    pub(crate) fn execute(
        &self,
        data: &mut [T],
        cancel: Option<&CancelToken>,
    ) -> Result<RunStats, EngineError> {
        self.pipeline.execute(data, cancel)
    }
}

/// The constant algebra: the state is a chunk's last `k` outputs (its
/// carries), fixed forward and corrected with the n-nacci factors.
impl<T: Element> CarryAlgebra<T> for CorrectionPlan<T> {
    fn base_stats(&self) -> RunStats {
        RunStats {
            plan_kind: self.kind(),
            correction_taps: self.correction_taps() as u64,
            kernel: self.solve().kind(),
            ..RunStats::default()
        }
    }

    /// The `p - 1` original inputs before each chunk start (fewer near
    /// the front of the data): by the time a worker maps across its left
    /// boundary, the owner of that data may already have overwritten it.
    /// A one-tap FIR never reads across a boundary.
    fn stash(&self, data: &[T]) -> Vec<Vec<T>> {
        let p = self.fir().len();
        if self.signature().is_pure_feedback() || p <= 1 {
            return Vec::new();
        }
        let m = self.chunk_size();
        (1..data.len().div_ceil(m))
            .map(|c| data[(c * m).saturating_sub(p - 1)..c * m].to_vec())
            .collect()
    }

    /// One pass where the plan fuses the map into the solve, two
    /// otherwise ([`CorrectionPlan::map_solve_sliced`]).
    fn solve(
        &self,
        c: usize,
        chunk: &mut [T],
        prev_raw: &[T],
        _history: Option<&[T]>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> Solved<T> {
        let solved = self.map_solve_sliced(chunk, prev_raw, keep_going);
        Solved {
            slices: solved.slices,
            state: solved.completed.then(|| self.local_state(c, chunk)),
            kernel: KernelKind::Unknown,
        }
    }

    /// Inside the cascade's loop where the plan fuses the correction into
    /// the solve ([`CorrectionPlan::correct_map_solve_sliced`]), its time
    /// then counted as the solve's; apart otherwise.
    fn correct_then_solve(
        &self,
        held: Option<Held<'_, T>>,
        c: usize,
        chunk: &mut [T],
        prev_raw: &[T],
        _history: Option<&[T]>,
        keep_going: &mut dyn FnMut() -> bool,
        tally: &mut RunStats,
    ) -> Solved<T> {
        let solved = match held {
            Some(held) if self.fuses_correction() => timed(&mut tally.solve_nanos, || {
                self.correct_map_solve_sliced(held.chunk, &held.prev, chunk, prev_raw, keep_going)
            }),
            held => {
                if let Some(held) = held {
                    held.correct(self, tally);
                }
                timed(&mut tally.solve_nanos, || {
                    self.map_solve_sliced(chunk, prev_raw, keep_going)
                })
            }
        };
        Solved {
            slices: solved.slices,
            state: solved.completed.then(|| self.local_state(c, chunk)),
            kernel: KernelKind::Unknown,
        }
    }

    fn local_state(&self, _c: usize, chunk: &[T]) -> Vec<T> {
        carries_of(chunk, self.order())
    }

    fn fixup(&self, _c: usize, prev: &[T], local: &[T], len: usize) -> Vec<T> {
        self.fixup_carries(prev, local, len)
    }

    fn correct(&self, _c: usize, chunk: &mut [T], prev: &[T]) {
        self.correct_chunk(chunk, prev);
    }

    fn carries_reset(&self, len: usize) -> bool {
        self.resets_carries(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plr_core::blocked::fir_in_place;
    use plr_core::serial;
    use plr_core::validate::validate;

    fn check<T: Element>(sig_text: &str, n: usize, config: RunnerConfig, tol: f64)
    where
        Signature<T>: std::str::FromStr,
        <Signature<T> as std::str::FromStr>::Err: std::fmt::Debug,
    {
        let sig: Signature<T> = sig_text.parse().unwrap();
        let input: Vec<T> = (0..n)
            .map(|i| T::from_i32(((i * 29) % 19) as i32 - 9))
            .collect();
        let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
        let got = runner.run(&input).unwrap();
        let expect = serial::run(&sig, &input);
        validate(&expect, &got, tol).unwrap_or_else(|e| panic!("{sig_text} {config:?}: {e}"));
    }

    #[test]
    fn integer_catalog_exact_across_thread_counts() {
        for threads in [1, 2, 4, 8] {
            for text in ["1:1", "1:0,1", "1:0,0,1", "1:2,-1", "1:3,-3,1"] {
                check::<i64>(
                    text,
                    100_000,
                    RunnerConfig {
                        chunk_size: 1 << 10,
                        threads,
                        ..Default::default()
                    },
                    0.0,
                );
            }
        }
    }

    #[test]
    fn float_filters_within_tolerance() {
        for text in ["0.2:0.8", "0.04:1.6,-0.64", "0.9,-0.9:0.8"] {
            check::<f32>(
                text,
                50_000,
                RunnerConfig {
                    chunk_size: 4096,
                    threads: 4,
                    ..Default::default()
                },
                1e-3,
            );
        }
    }

    /// Regression test for `WorkerPool::new` graceful degradation: if
    /// *every* worker spawn fails (simulated by `new_degraded`), runs must
    /// still complete correctly on the caller-as-worker-0 serial path and
    /// report the effective width of 1 — and once spawning works again,
    /// the next submission's heal pass must restore the full pool.
    #[test]
    fn zero_spawned_workers_degrades_to_correct_serial_run() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..50_000).map(|i| (i % 17) as i64 - 8).collect();
        let expect = serial::run(&sig, &input);

        let pool = Arc::new(WorkerPool::new_degraded(4));
        assert_eq!(pool.width(), 1, "no spawned workers must survive");
        let runner = ParallelRunner::with_config_and_pool(
            sig,
            RunnerConfig {
                chunk_size: 1 << 10,
                threads: 4,
                ..Default::default()
            },
            Arc::clone(&pool),
        )
        .unwrap();

        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(data, expect, "serial fallback must still be correct");
        assert_eq!(stats.threads, 1, "effective width is the caller alone");
        assert_eq!(pool.width(), 1, "inhibited heal must not respawn");

        // Spawning works again: the next submission heals back to full
        // width and the run is still correct.
        pool.allow_respawn();
        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(data, expect);
        assert_eq!(stats.threads, 4, "heal must restore the full pool");
        assert!(pool.recovered_workers() >= 3);
    }

    #[test]
    fn check_finite_flags_divergent_float_runs() {
        // y_i = 2·y_{i-1} + x_i diverges. With 256-element chunks f32
        // overflows to +inf inside the first chunk; with 64-element chunks
        // every local carry stays finite and only a derived global carry
        // (chunk 1's) overflows. The run must report it either way.
        let sig: Signature<f32> = "1:2".parse().unwrap();
        for (n, chunk_size, threads) in [(4096, 256, 4), (256, 64, 1), (256, 64, 2)] {
            let input = vec![1.0f32; n];
            let num_chunks = n / chunk_size;
            let config = RunnerConfig {
                chunk_size,
                threads,
                ..Default::default()
            };
            let strict = ParallelRunner::with_config(
                sig.clone(),
                RunnerConfig {
                    check_finite: true,
                    ..config
                },
            )
            .unwrap();
            match strict.run(&input) {
                Err(EngineError::NonFiniteCarry { chunk }) => assert!(chunk < num_chunks),
                other => panic!("expected NonFiniteCarry ({config:?}), got {other:?}"),
            }
            // The check is opt-in: by default the same run completes
            // and silently propagates the non-finite values.
            let lax = ParallelRunner::with_config(sig.clone(), config).unwrap();
            let out = lax.run(&input).unwrap();
            assert!(!out.last().unwrap().is_finite(), "{config:?}");
        }
    }

    #[test]
    fn check_finite_passes_stable_runs_untouched() {
        // Stable float filter and (vacuously) an integer signature: the
        // scan must not reject finite runs or cost integer paths anything.
        let finite_cfg = RunnerConfig {
            chunk_size: 1024,
            threads: 4,
            check_finite: true,
            ..Default::default()
        };
        check::<f32>("0.2:0.8", 10_000, finite_cfg, 1e-3);
        check::<i64>("1:2,-1", 10_000, finite_cfg, 0.0);
    }

    #[test]
    fn ragged_and_tiny_inputs() {
        check::<i64>(
            "1:2,-1",
            1,
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
            0.0,
        );
        check::<i64>(
            "1:2,-1",
            63,
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
            0.0,
        );
        check::<i64>(
            "1:2,-1",
            65,
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
            0.0,
        );
        check::<i64>(
            "1:2,-1",
            6400 + 17,
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
            0.0,
        );
    }

    #[test]
    fn empty_input() {
        let sig: Signature<i32> = "1:1".parse().unwrap();
        let runner = ParallelRunner::new(sig).unwrap();
        assert_eq!(runner.run(&[]).unwrap(), Vec::<i32>::new());
    }

    #[test]
    fn empty_input_reports_resolved_workers() {
        let sig: Signature<i32> = "1:1".parse().unwrap();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 64,
                threads: 3,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = runner.run_in_place(&mut []).unwrap();
        assert_eq!(stats.threads, 3);
        assert_eq!(stats.chunks, 0);

        let sig: Signature<i32> = "1:1".parse().unwrap();
        let auto = ParallelRunner::new(sig).unwrap();
        let stats = auto.run_in_place(&mut []).unwrap();
        assert_eq!(stats.threads, auto.threads() as u64);
        assert!(stats.threads >= 1);
    }

    #[test]
    fn deterministic_for_integers() {
        let sig: Signature<i64> = "1:3,-3,1".parse().unwrap();
        let input: Vec<i64> = (0..200_000).map(|i| (i % 23) as i64 - 11).collect();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 2048,
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let a = runner.run(&input).unwrap();
        for _ in 0..5 {
            assert_eq!(runner.run(&input).unwrap(), a);
        }
    }

    #[test]
    fn stats_reflect_the_lookback() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 1024,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data: Vec<i64> = (0..100_000).map(|i| i as i64 % 7).collect();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(stats.chunks, 100_000u64.div_ceil(1024));
        assert!(stats.lookback_hops >= stats.chunks - 1);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn phase_timings_are_populated() {
        let sig: Signature<f64> = "0.81,-1.62,0.81:1.6,-0.64".parse().unwrap();
        let mut input: Vec<f64> = (0..200_000)
            .map(|i| ((i % 13) as f64) * 0.1 - 0.6)
            .collect();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 4096,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let stats = runner.run_in_place(&mut input).unwrap();
        assert!(stats.solve_nanos > 0, "map and local solve must be timed");
        assert_eq!(stats.fir_nanos, 0, "the map's time is inside the solve's");
        assert!(stats.correct_nanos > 0, "correction must be timed");
        assert!(
            stats.busy_nanos() >= stats.solve_nanos,
            "total covers the parts"
        );
    }

    #[test]
    fn pure_feedback_skips_the_fir_phase() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 1024,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data: Vec<i64> = (0..50_000).map(|i| (i % 5) as i64).collect();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert!(stats.solve_nanos > 0);
    }

    #[test]
    fn repeated_runs_on_one_runner_stay_correct() {
        // The pool is reused across calls; results must stay identical and
        // correct for differently sized inputs on the same runner.
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 512,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        for n in [0usize, 1, 511, 512, 513, 10_000, 70_001] {
            let input: Vec<i64> = (0..n).map(|i| (i % 11) as i64 - 5).collect();
            assert_eq!(
                runner.run(&input).unwrap(),
                serial::run(&sig, &input),
                "n={n}"
            );
        }
    }

    #[test]
    fn config_validation() {
        let sig: Signature<i32> = "1:3,-3,1".parse().unwrap();
        assert!(matches!(
            ParallelRunner::with_config(
                sig.clone(),
                RunnerConfig {
                    chunk_size: 2,
                    threads: 1,
                    ..Default::default()
                }
            ),
            Err(EngineError::InvalidChunkSize { .. })
        ));
        assert!(ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 3,
                threads: 1,
                ..Default::default()
            }
        )
        .is_ok());
    }

    #[test]
    fn fir_signatures_run_the_map_stage() {
        check::<f64>(
            "0.81,-1.62,0.81:1.6,-0.64",
            30_000,
            RunnerConfig {
                chunk_size: 1024,
                threads: 4,
                ..Default::default()
            },
            1e-6,
        );
    }

    #[test]
    fn fir_wider_than_chunk_reaches_across_several_chunks() {
        // p - 1 > m: the boundary stash must reach past the immediately
        // preceding chunk into earlier ones.
        let sig: Signature<i64> = "1,1,1,1,1,1,1:1".parse().unwrap();
        let input: Vec<i64> = (0..1000).map(|i| (i % 9) as i64 - 4).collect();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 4,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(runner.run(&input).unwrap(), serial::run(&sig, &input));
    }

    #[test]
    fn fir_in_place_matches_fir_map() {
        let fir = [3i64, -2, 5, 7];
        let input: Vec<i64> = (0..100).map(|i| (i % 7) as i64 - 3).collect();
        let expect = serial::fir_map(&fir, &input);
        for m in [1usize, 3, 8, 33, 100, 200] {
            let mut data = input.clone();
            let num_chunks = data.len().div_ceil(m);
            let boundaries: Vec<Vec<i64>> = (1..num_chunks)
                .map(|c| data[(c * m).saturating_sub(fir.len() - 1)..c * m].to_vec())
                .collect();
            for c in (0..num_chunks).rev() {
                // Process in arbitrary (here reverse) order: the stash must
                // make order irrelevant.
                let start = c * m;
                let end = (start + m).min(input.len());
                let prev: &[i64] = if c == 0 { &[] } else { &boundaries[c - 1] };
                fir_in_place(&fir, prev, start, &mut data[start..end]);
            }
            assert_eq!(data, expect, "chunk size {m}");
        }
    }

    #[test]
    fn single_thread_equals_multi_thread_for_ints() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..50_000).map(|i| (i % 31) as i64 - 15).collect();
        let one = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 4096,
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap()
        .run(&input)
        .unwrap();
        let many = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 4096,
                threads: 8,
                ..Default::default()
            },
        )
        .unwrap()
        .run(&input)
        .unwrap();
        assert_eq!(one, many);
    }

    #[test]
    fn pre_cancelled_token_rejects_the_run() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let runner = ParallelRunner::new(sig).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let input: Vec<i64> = (0..10_000).map(|i| (i % 7) as i64).collect();
        match runner.run_with_cancel(&input, &token) {
            Err(EngineError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // The runner (and its pool) are unaffected; a fresh token works.
        let out = runner.run_with_cancel(&input, &CancelToken::new()).unwrap();
        assert_eq!(out, serial::run(&"1:2,-1".parse().unwrap(), &input));
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let sig: Signature<i64> = "1:3,-3,1".parse().unwrap();
        let input: Vec<i64> = (0..50_000).map(|i| (i % 13) as i64 - 6).collect();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1024,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let token = CancelToken::new();
        let got = runner.run_with_cancel(&input, &token).unwrap();
        assert_eq!(got, serial::run(&sig, &input));
    }

    #[test]
    fn expired_deadline_rejects_the_run() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..10_000).map(|i| (i % 5) as i64).collect();
        let runner = ParallelRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 512,
                threads: 4,
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        )
        .unwrap();
        match runner.run(&input) {
            Err(EngineError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::ZERO)
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_perturb_results() {
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..60_000).map(|i| (i % 9) as i64 - 4).collect();
        let runner = ParallelRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1024,
                threads: 4,
                deadline: Some(Duration::from_secs(120)),
                ..Default::default()
            },
        )
        .unwrap();
        for _ in 0..3 {
            assert_eq!(runner.run(&input).unwrap(), serial::run(&sig, &input));
        }
    }

    /// Fresh runners built and run from four threads at once (a barrier
    /// lines up each round's leases): each takes an idle pool or spawns
    /// one, never a pool another runner is using, and every output
    /// matches `serial::run`. The threads record what they find instead
    /// of panicking, so one failure cannot strand the others at the
    /// barrier.
    #[test]
    fn idle_pool_never_shares_a_busy_pool() {
        use crate::pool::lock_recover;
        use std::collections::HashSet;
        use std::sync::{Barrier, Mutex};
        let (_serial, width) = WorkerPool::idle_test_width();
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let busy = Mutex::new(HashSet::new());
        let faults = Mutex::new(Vec::new());
        let round = Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (sig, busy, faults, round) = (&sig, &busy, &faults, &round);
                s.spawn(move || {
                    for i in 0..16 {
                        let input: Vec<i64> = (0..20_000)
                            .map(|j| ((j * 7 + t + i) % 13) as i64 - 6)
                            .collect();
                        round.wait();
                        let config = RunnerConfig {
                            chunk_size: 1 << 10,
                            threads: width,
                            ..Default::default()
                        };
                        let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
                        let pool = Arc::as_ptr(runner.pipeline.pool()) as usize;
                        if !lock_recover(busy).insert(pool) {
                            lock_recover(faults).push(format!("thread {t} round {i}: shared"));
                        }
                        if runner.run(&input).ok() != Some(serial::run(sig, &input)) {
                            lock_recover(faults).push(format!("thread {t} round {i}: output"));
                        }
                        lock_recover(busy).remove(&pool);
                        drop(runner);
                    }
                });
            }
        });
        assert_eq!(faults.into_inner().unwrap(), Vec::<String>::new());
        assert!(
            WorkerPool::idle(width) <= 2,
            "the list keeps two pools a width"
        );
    }

    /// A pool handed in through `with_config_and_pool` belongs to whoever
    /// handed it in: the runner never lists it, even as its last holder.
    /// Nor is a pool below its full width listed. A batch runner lists
    /// its own pool once, after its cached intra-row runner, which
    /// inherited that pool, has gone.
    #[test]
    fn idle_pool_never_lists_an_inherited_pool() {
        let (_serial, width) = WorkerPool::idle_test_width();
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..50_000).map(|i| (i % 17) as i64 - 8).collect();
        let expect = serial::run(&sig, &input);
        let pool = Arc::new(WorkerPool::new_degraded(width));
        let runner = ParallelRunner::with_config_and_pool(
            sig.clone(),
            RunnerConfig {
                chunk_size: 1 << 10,
                threads: width,
                ..Default::default()
            },
            Arc::clone(&pool),
        )
        .unwrap();
        assert_eq!(runner.run(&input).unwrap(), expect);
        pool.allow_respawn();
        assert_eq!(runner.run(&input).unwrap(), expect);
        assert_eq!(pool.width(), width, "healed to its full width");
        drop(pool);
        drop(runner);
        assert_eq!(
            WorkerPool::idle(width),
            0,
            "an inherited pool is never listed"
        );
        WorkerPool::release(Arc::new(WorkerPool::new_degraded(width)));
        assert_eq!(
            WorkerPool::idle(width),
            0,
            "a narrowed pool is never listed"
        );

        let batch = crate::BatchRunner::new(sig.clone(), width);
        let mut rows = input.clone();
        let half = input.len() / 2;
        let stats = batch.run_rows(&mut rows, half).unwrap();
        assert!(stats.lookback_hops > 0, "two long rows run chunked");
        for (got, row) in rows.chunks(half).zip(input.chunks(half)) {
            assert_eq!(got, serial::run(&sig, row));
        }
        drop(batch);
        assert_eq!(
            WorkerPool::idle(width),
            1,
            "the batch runner lists its pool"
        );
    }

    /// A run that panicked leaves its pool reusable: the runner lists it
    /// on drop, and a fresh runner takes it and runs correctly.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn idle_pool_reuses_a_pool_whose_run_panicked() {
        use crate::fault::{self, FaultPlan, FaultSite};
        let (_serial, width) = WorkerPool::idle_test_width();
        let _fault = crate::pool::lock_recover(&fault::SERIAL);
        // Eight-element chunks, so the faulted chunk lies past every chunk
        // index the crate's other unit tests reach.
        let (m, late) = (8, 6000);
        let sig: Signature<i64> = "1:2,-1".parse().unwrap();
        let input: Vec<i64> = (0..(late + 100) * m).map(|i| (i % 11) as i64 - 5).collect();
        let config = RunnerConfig {
            chunk_size: m,
            threads: width,
            ..Default::default()
        };
        let runner = ParallelRunner::with_config(sig.clone(), config).unwrap();
        let pool = Arc::as_ptr(runner.pipeline.pool()) as usize;
        fault::arm(FaultPlan::panic_at_chunk(FaultSite::Lookback, late));
        let faulted = runner.run(&input);
        let fired = !fault::is_armed();
        fault::disarm();
        assert!(fired, "the fault fired");
        assert!(
            matches!(faulted, Err(EngineError::WorkerPanicked { .. })),
            "{faulted:?}"
        );
        drop(runner);
        assert_eq!(
            WorkerPool::idle(width),
            1,
            "the panicked run's pool is listed"
        );
        let fresh = ParallelRunner::with_config(sig.clone(), config).unwrap();
        assert_eq!(Arc::as_ptr(fresh.pipeline.pool()) as usize, pool);
        assert_eq!(fresh.run(&input).unwrap(), serial::run(&sig, &input));
    }
}
