//! Multithreaded execution of time-varying recurrences.
//!
//! [`VaryingRunner`] is a thin constructor over the crate's one chunk
//! pipeline (the private `pipeline` module), with the matrix-carry
//! lowering ([`plr_core::varying`]) as its carry algebra: chunks are
//! stitched together through per-chunk *affine carry maps*
//! `g ↦ M_c·g + local_c` instead of n-nacci correction factors. The
//! transition matrices `M_c` depend only on the coefficients, so they are
//! precomputed once per [`VaryingPlan`] and shared by every run. Cancel
//! tokens, deadlines, `check_finite`, fault injection, and the
//! batch/stream layers ([`VaryingRunner::run_rows`],
//! [`VaryingRunner::stream`]) behave exactly as they do for constant
//! signatures.
//!
//! One capability is this algebra's alone: *fusion*. Chunk 0, and every
//! chunk of a width-1 run, is solved directly from real history — no
//! local publish, no correction pass, no matrix math. On one thread the
//! run so degenerates to the serial sweep, which is exactly the
//! work-optimal behavior. Which chunks fuse depends only on the run's
//! width, never on timing: fusing a chunk whose predecessor happened to
//! finish first would make float outputs depend on the schedule (fused
//! and corrected solves round differently), and a concurrent look-back
//! walk would wait on a local state the fused chunk never publishes.

use crate::batch::RowTask;
use crate::pipeline::{bound_row_methods, runner_methods, CarryAlgebra, Pipeline, Solved};
use crate::pool::CancelToken;
use crate::runner::RunnerConfig;
use crate::stats::RunStats;
use crate::stream::RowStream;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::nacci::carries_of;
use plr_core::plan::PlanKind;
use plr_core::varying::{VaryingPlan, VaryingSignature};
use std::sync::Arc;

/// A multithreaded executor for one time-varying signature: transition
/// matrices and constant-chunk kernels precomputed once, worker threads
/// spawned once and reused across runs.
///
/// Unlike [`ParallelRunner`](crate::ParallelRunner), the signature binds
/// the *input length* (coefficients are positional), so every run must
/// supply exactly `plan.len()` elements per sequence.
///
/// A chunk whose transition underflows is corrected only up to its
/// decay point `d_c` ([`VaryingPlan::correction_len`]; the truncation
/// rule is in [`plr_core::varying`]'s module docs), as a truncated
/// constant-coefficient plan corrects only a prefix. So a NaN or
/// infinite carry reaches only the first `d_c` outputs of such a chunk,
/// and the chunk's global state becomes NaN (`0·inf`), where the serial
/// recurrence is non-finite from the bad value on.
/// [`RunnerConfig::check_finite`] rejects such a run at the first chunk
/// whose state is not finite. No configuration turns the truncation
/// off; `EngineConfig::flush_denormals` does not control it.
///
/// # Examples
///
/// ```
/// use plr_parallel::VaryingRunner;
/// use plr_core::varying::VaryingSignature;
///
/// // y[i] = x[i] + a[i]·y[i-1] with a = [2, 0, 3, 1].
/// let sig = VaryingSignature::first_order(vec![2i64, 0, 3, 1])?;
/// let runner = VaryingRunner::new(sig)?;
/// let y = runner.run(&[1, 1, 1, 1])?;
/// assert_eq!(y, vec![1, 1, 4, 5]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct VaryingRunner<T> {
    /// The precomputed lowering (per-chunk transition matrices and
    /// deduplicated constant-row kernels) driving the shared pipeline.
    pipeline: Pipeline<VaryingPlan<T>>,
}

impl<T: Element> VaryingRunner<T> {
    /// Creates a runner with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`VaryingRunner::with_config`].
    pub fn new(signature: VaryingSignature<T>) -> Result<Self, EngineError> {
        Self::with_config(signature, RunnerConfig::default())
    }

    /// Creates a runner with an explicit configuration. The
    /// [`RunnerConfig::plan`] field is ignored — varying signatures have
    /// exactly one lowering and never consult the constant-coefficient
    /// correction-plan cache.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidChunkSize`] when the chunk size is
    /// zero or smaller than the recurrence order, and
    /// [`EngineError::InputTooLarge`] when the signature binds more than
    /// `2^30` elements.
    pub fn with_config(
        signature: VaryingSignature<T>,
        config: RunnerConfig,
    ) -> Result<Self, EngineError> {
        let plan = VaryingPlan::build(signature, config.chunk_size)?;
        Ok(VaryingRunner {
            pipeline: Pipeline::new(Arc::new(plan), config, None),
        })
    }

    /// The time-varying signature this runner executes.
    pub fn signature(&self) -> &VaryingSignature<T> {
        self.pipeline.plan.signature()
    }

    /// The precomputed matrix-carry plan (shared with every run and with
    /// rows dispatched through [`VaryingRunner::run_rows`] /
    /// [`VaryingRunner::stream`]).
    pub fn plan(&self) -> &Arc<VaryingPlan<T>> {
        &self.pipeline.plan
    }

    runner_methods!();
    bound_row_methods!(RowTask::varying);
}

/// The varying algebra: the state is the `k` most recent outputs, carried
/// across chunk `c` by its affine map `g ↦ M_c·g + local_c`. No FIR stage,
/// no resets, no skips; fuses when the predecessor is already resolved.
impl<T: Element> CarryAlgebra<T> for VaryingPlan<T> {
    fn bound_len(&self) -> Option<usize> {
        Some(self.len())
    }

    /// Never touches the correction-plan cache; reports the plan's kernel
    /// summary ([`KernelKind::Mixed`](plr_core::kernel::KernelKind::Mixed)
    /// when constant-row kernel chunks and varying scalar chunks coexist).
    fn base_stats(&self) -> RunStats {
        RunStats {
            plan_kind: PlanKind::MatrixCarry,
            kernel: self.aggregate_kernel_kind(),
            correction_taps: self.order() as u64,
            ..RunStats::default()
        }
    }

    fn solve(
        &self,
        c: usize,
        chunk: &mut [T],
        history: Option<&[T]>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> Solved<T> {
        let out = self.solve_chunk(c, history, chunk, keep_going);
        Solved {
            slices: out.slices,
            state: out.completed.then_some(out.state),
        }
    }

    /// The zero-history state: the last `k` outputs, zero-filled past the
    /// chunk's start.
    fn local_state(&self, _c: usize, chunk: &[T]) -> Vec<T> {
        let mut state = carries_of(chunk, self.order());
        state.resize(self.order(), T::zero());
        state
    }

    fn fixup(&self, c: usize, prev: &[T], local: &[T], _len: usize) -> Vec<T> {
        self.fixup_state(c, prev, local)
    }

    fn correct(&self, c: usize, chunk: &mut [T], prev: &[T]) {
        self.correct_chunk(c, prev, chunk);
    }

    /// Chunk 0 always fuses (its history is the zero state); later chunks
    /// fuse when their predecessor's global is already published — for
    /// floats only on a width-1 pool, where every chunk fuses
    /// deterministically. Integer arithmetic is exact either way.
    fn fused_history<'a>(
        &self,
        c: usize,
        width: usize,
        prev: impl FnOnce() -> Option<&'a Vec<T>>,
    ) -> Option<Vec<T>>
    where
        T: 'a,
    {
        if c == 0 {
            Some(vec![T::zero(); self.order()])
        } else if width == 1 {
            prev().cloned()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plr_core::varying::{reference, VaryingSignature};

    fn gates_f64(n: usize, k: usize) -> Vec<f64> {
        // Deterministic contractive coefficients in [0.1, 0.5].
        let mut s = 0x9e3779b97f4a7c15u64;
        (0..n * k)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                0.1 + 0.4 * ((s >> 11) as f64 / (1u64 << 53) as f64)
            })
            .collect()
    }

    fn coeffs_i64(n: usize, k: usize) -> Vec<i64> {
        let mut s = 0x243f6a8885a308d3u64;
        (0..n * k)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 5) as i64 - 2
            })
            .collect()
    }

    fn input_i64(n: usize) -> Vec<i64> {
        (0..n).map(|i| (i % 23) as i64 - 11).collect()
    }

    #[test]
    fn lookback_matches_reference_exactly_on_ints() {
        let n = 5000;
        for k in [1usize, 2, 3] {
            let sig = VaryingSignature::new(k, coeffs_i64(n, k)).unwrap();
            let input = input_i64(n);
            let expect = reference(&sig, &input).unwrap();
            for threads in [1usize, 4] {
                let runner = VaryingRunner::with_config(
                    sig.clone(),
                    RunnerConfig {
                        chunk_size: 256,
                        threads,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(
                    runner.run(&input).unwrap(),
                    expect,
                    "k={k} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn float_runs_stay_close_to_reference() {
        let n = 10_000;
        let k = 2;
        let sig = VaryingSignature::new(k, gates_f64(n, k)).unwrap();
        let input: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect();
        let expect = reference(&sig, &input).unwrap();
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 512,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let got = runner.run(&input).unwrap();
        for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                "i={i}: {g} vs {e}"
            );
        }
    }

    #[test]
    fn stats_report_the_varying_shape() {
        let n = 4096;
        let sig = VaryingSignature::first_order(coeffs_i64(n, 1)).unwrap();
        let input = input_i64(n);
        let runner = VaryingRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 256,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(stats.plan_kind, PlanKind::MatrixCarry);
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(stats.plan_cache_misses, 0);
        assert_eq!(stats.chunks, 16);
        assert!(stats.fused_chunks >= 1, "chunk 0 always fuses");
    }

    #[test]
    fn wrong_length_is_rejected() {
        let sig = VaryingSignature::first_order(vec![1i64; 64]).unwrap();
        let runner = VaryingRunner::new(sig).unwrap();
        match runner.run(&[0i64; 63]) {
            Err(EngineError::LengthMismatch { expected, got }) => {
                assert_eq!((expected, got), (64, 63));
            }
            other => panic!("expected LengthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn empty_signature_runs_empty_input() {
        let sig = VaryingSignature::new(1, Vec::<i64>::new()).unwrap();
        let runner = VaryingRunner::new(sig).unwrap();
        assert_eq!(runner.run(&[]).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn run_rows_applies_the_signature_per_row() {
        let width = 300;
        let rows = 5;
        let k = 2;
        let sig = VaryingSignature::new(k, coeffs_i64(width, k)).unwrap();
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 64,
                threads: 4,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data: Vec<i64> = (0..width * rows).map(|i| (i % 31) as i64 - 15).collect();
        let expect: Vec<i64> = data
            .chunks(width)
            .flat_map(|row| reference(&sig, row).unwrap())
            .collect();
        let stats = runner.run_rows(&mut data, width).unwrap();
        assert_eq!(data, expect);
        assert_eq!(stats.rows, rows as u64);
        assert_eq!(stats.plan_kind, PlanKind::MatrixCarry);
    }

    #[test]
    fn run_rows_rejects_foreign_widths() {
        let sig = VaryingSignature::first_order(vec![1i64; 100]).unwrap();
        let runner = VaryingRunner::new(sig).unwrap();
        let mut data = vec![0i64; 200];
        assert!(matches!(
            runner.run_rows(&mut data, 50),
            Err(EngineError::LengthMismatch { .. })
        ));
        assert!(matches!(
            runner.run_rows(&mut data, 0),
            Err(EngineError::UnsupportedSignature { .. })
        ));
    }

    #[test]
    fn stream_solves_varying_rows() {
        let width = 257;
        let sig = VaryingSignature::first_order(coeffs_i64(width, 1)).unwrap();
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 64,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let rows: Vec<Vec<i64>> = (0..6)
            .map(|r| (0..width).map(|i| ((i + r * 7) % 19) as i64 - 9).collect())
            .collect();
        let stream = runner.stream();
        let handles: Vec<_> = rows
            .iter()
            .map(|row| stream.push_row(row.clone()))
            .collect();
        for (row, handle) in rows.iter().zip(handles) {
            let (got, outcome) = handle.join();
            outcome.unwrap();
            assert_eq!(got, reference(&sig, row).unwrap());
        }
        let stats = stream.finish().unwrap();
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.plan_kind, PlanKind::MatrixCarry);
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(stats.plan_cache_misses, 0);
    }

    #[test]
    fn streamed_row_stats_match_run_rows() {
        let n = 4096;
        let sig = VaryingSignature::first_order(coeffs_i64(n, 1)).unwrap();
        let runner = VaryingRunner::with_config(
            sig,
            RunnerConfig {
                chunk_size: 512,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let input = input_i64(n);
        let mut blocked = input.clone();
        let blocking = runner.run_rows(&mut blocked, n).unwrap();
        let stream = runner.stream();
        let (streamed, outcome) = stream.push_row(input).join();
        let row = outcome.unwrap();
        assert_eq!(streamed, blocked);
        assert_eq!((blocking.chunks, blocking.correction_taps), (8, 1));
        let shape = |s: &RunStats| {
            (
                s.rows,
                s.chunks,
                s.correction_taps,
                s.plan_kind,
                s.kernel,
                s.plan_cache_hits + s.plan_cache_misses,
            )
        };
        assert_eq!(shape(&row), shape(&blocking), "per-row stream stats");
        assert_eq!(
            shape(&stream.finish().unwrap()),
            shape(&blocking),
            "stream aggregate"
        );
    }

    #[test]
    fn stream_rejects_wrong_length_rows() {
        let width = 64;
        let sig = VaryingSignature::first_order(coeffs_i64(width, 1)).unwrap();
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 16,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let stream = runner.stream();
        for len in [width - 1, width + 1] {
            let handle = stream.push_row(vec![1; len]);
            assert!(handle.is_finished(), "a wrong-length row is never queued");
            assert_eq!(handle.index(), usize::MAX);
            let (data, outcome) = handle.join();
            assert_eq!(data, vec![1; len], "the buffer comes back untouched");
            match outcome {
                Err(EngineError::LengthMismatch { expected, got }) => {
                    assert_eq!((expected, got), (width, len))
                }
                other => panic!("expected LengthMismatch, got {other:?}"),
            }
        }
        // The stream is unaffected: a row of the bound length solves.
        let row = input_i64(width);
        let (got, outcome) = stream.push_row(row.clone()).join();
        outcome.unwrap();
        assert_eq!(got, reference(&sig, &row).unwrap());
        assert_eq!(stream.finish().unwrap().rows, 1);
    }

    #[test]
    fn pre_cancelled_token_rejects_the_run() {
        let n = 10_000;
        let sig = VaryingSignature::first_order(coeffs_i64(n, 1)).unwrap();
        let runner = VaryingRunner::new(sig.clone()).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let input = input_i64(n);
        match runner.run_with_cancel(&input, &token) {
            Err(EngineError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        let out = runner.run_with_cancel(&input, &CancelToken::new()).unwrap();
        assert_eq!(out, reference(&sig, &input).unwrap());
    }

    #[test]
    fn expired_deadline_rejects_the_run() {
        let n = 10_000;
        let sig = VaryingSignature::first_order(coeffs_i64(n, 1)).unwrap();
        let input = input_i64(n);
        let runner = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 512,
                threads: 4,
                deadline: Some(std::time::Duration::ZERO),
                ..Default::default()
            },
        )
        .unwrap();
        match runner.run(&input) {
            Err(EngineError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    /// f32 gates in `[0.5, 0.99)`: every 1024-element chunk's transition
    /// underflows within a few hundred elements.
    fn slow_decay_gates(n: usize) -> Vec<f32> {
        gates_f64(n, 1)
            .iter()
            .map(|a| (0.5 + 1.225 * (a - 0.1)) as f32)
            .collect()
    }

    /// A decaying f32 chunk holding an expansive (1.5), NaN or infinite
    /// gate past its decay point is never truncated: the runner gives
    /// the decoupled engine's outputs (which the plan-layer tests
    /// pin to the untruncated pipeline's), and `check_finite` flags
    /// exactly the chunks that produce a non-finite state.
    #[test]
    fn hostile_gates_keep_untruncated_outputs_and_check_finite_verdicts() {
        use plr_core::engine::{CarryPropagation, EngineConfig, LocalSolve};
        use plr_core::varying::VaryingEngine;
        let m = 1024;
        let n = 4 * m;
        let input: Vec<f32> = (0..n).map(|i| 0.5 + (i % 11) as f32 * 0.1).collect();
        for hostile in [1.5f32, f32::NAN, f32::INFINITY] {
            let mut gates = slow_decay_gates(n);
            gates[3 * m + 700] = hostile;
            let sig = VaryingSignature::first_order(gates).unwrap();
            let engine = VaryingEngine::with_config(
                sig.clone(),
                EngineConfig {
                    chunk_size: m,
                    carry_propagation: CarryPropagation::Decoupled,
                    local_solve: LocalSolve::Serial,
                    flush_denormals: false,
                },
            )
            .unwrap();
            let expect = engine.run(&input).unwrap();
            assert!(engine.plan().matrix(2).is_zero(), "{hostile}");
            assert_eq!(engine.plan().correction_len(3), m, "{hostile}");
            for check_finite in [false, true] {
                let runner = VaryingRunner::with_config(
                    sig.clone(),
                    RunnerConfig {
                        chunk_size: m,
                        threads: 2,
                        check_finite,
                        ..Default::default()
                    },
                )
                .unwrap();
                match runner.run(&input) {
                    Err(EngineError::NonFiniteCarry { chunk: 3 })
                        if check_finite && !hostile.is_finite() => {}
                    Ok(got) if !check_finite || hostile.is_finite() => {
                        let same = got
                            .iter()
                            .zip(&expect)
                            .all(|(g, e)| g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan()));
                        assert!(same, "{hostile} check_finite={check_finite}");
                    }
                    other => panic!("{hostile} check_finite={check_finite}: got {other:?}"),
                }
            }
        }
    }

    /// An infinite or NaN input in a decaying f32 chunk. `check_finite`
    /// rejects the run at that chunk, the first whose state is not
    /// finite. Without it, each later chunk is corrected only up to its
    /// decay point `d_c`: its first `d_c` outputs are not finite, the
    /// rest are its local solve, and its global state is `0·inf` or
    /// `0·NaN`, which is NaN. (The serial reference is not finite from
    /// the bad input on.) On two threads no float chunk past chunk 0
    /// fuses, so the runner gives exactly these outputs.
    #[test]
    fn non_finite_inputs_reach_only_the_decay_prefix_of_later_chunks() {
        let m = 1024;
        let n = 4 * m;
        let sig = VaryingSignature::first_order(slow_decay_gates(n)).unwrap();
        let plan = VaryingPlan::build(sig.clone(), m).unwrap();
        let at = m + 700;
        for bad in [f32::INFINITY, f32::NAN] {
            let mut input: Vec<f32> = (0..n).map(|i| 0.5 + (i % 11) as f32 * 0.1).collect();
            input[at] = bad;
            for check_finite in [false, true] {
                let runner = VaryingRunner::with_config(
                    sig.clone(),
                    RunnerConfig {
                        chunk_size: m,
                        threads: 2,
                        check_finite,
                        ..Default::default()
                    },
                )
                .unwrap();
                let label = format!("{bad} check_finite={check_finite}");
                let got = runner.run(&input);
                if check_finite {
                    assert_eq!(
                        got,
                        Err(EngineError::NonFiniteCarry { chunk: 1 }),
                        "{label}"
                    );
                    continue;
                }
                let got = got.unwrap();
                assert!(got[..at].iter().all(|y| y.is_finite()), "{label}");
                assert!(got[at..2 * m].iter().all(|y| !y.is_finite()), "{label}");
                for c in 2..4 {
                    let d = plan.correction_len(c);
                    assert!(d > 0 && d < m, "{label}: chunk {c} decays at {d}");
                    let out = &got[c * m..(c + 1) * m];
                    assert!(out[..d].iter().all(|y| !y.is_finite()), "{label}");
                    let mut local = input[c * m..(c + 1) * m].to_vec();
                    plan.solve_chunk(c, None, &mut local, &mut || true);
                    let bits = |v: &[f32]| v.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&out[d..]), bits(&local[d..]), "{label}: chunk {c}");
                }
            }
        }
    }

    #[test]
    fn check_finite_flags_divergent_varying_floats() {
        // Gain 2 everywhere: f32 state overflows to +inf within the first
        // few chunks; the run must surface NonFiniteCarry.
        let n = 8192;
        let sig = VaryingSignature::first_order(vec![2.0f32; n]).unwrap();
        let input = vec![1.0f32; n];
        let strict = VaryingRunner::with_config(
            sig.clone(),
            RunnerConfig {
                chunk_size: 256,
                threads: 4,
                check_finite: true,
                ..Default::default()
            },
        )
        .unwrap();
        match strict.run(&input) {
            Err(EngineError::NonFiniteCarry { chunk }) => assert!(chunk < n / 256),
            other => panic!("expected NonFiniteCarry, got {other:?}"),
        }
    }
}
