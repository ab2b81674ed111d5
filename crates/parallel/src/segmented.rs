//! The multithreaded segmented runner: chunked decoupled look-back over
//! inputs with in-input restart boundaries.
//!
//! [`SegmentedRunner`] is a thin constructor over the crate's one chunk
//! pipeline (the private `pipeline` module), with the [`SegmentedPlan`]
//! (a correction plan plus a [`BoundaryMap`]) as its carry algebra. A
//! segment reset is a zero carry, and that makes segmented inputs *more*
//! parallel than plain ones, not less: the boundary map classifies every
//! chunk up front, reset chunks publish their global carries straight off
//! their local solve (their tail past the last in-chunk boundary never
//! needed correcting), and look-back from any later chunk terminates at
//! the nearest reset chunk instead of walking to chunk 0. Interior chunks
//! run the ordinary pipeline, with the one twist that a correction is
//! clipped at the first in-chunk boundary.
//!
//! The sparse fast path rides the same classification: a chunk whose raw
//! input, and the stashed raw inputs its map reads across its left
//! boundary, are entirely zero maps and solves to zero bit-exactly, so
//! its local solve is skipped outright — the correction pass *is* its
//! output, and its global carries reduce to the factor-table fix-up (a
//! companion-power multiply) of zero locals. `RunStats` reports both
//! classifications (`reset_chunks`, `skipped_chunks`).
//!
//! [`BoundaryMap`]: plr_core::segmented::BoundaryMap

use crate::batch::RowTask;
use crate::pipeline::{bound_row_methods, runner_methods, CarryAlgebra, Pipeline, Solved};
use crate::pool::CancelToken;
use crate::runner::RunnerConfig;
use crate::stats::RunStats;
use crate::stream::RowStream;
use plr_core::element::Element;
use plr_core::error::EngineError;
use plr_core::kernel::KernelKind;
use plr_core::nacci::carries_of;
use plr_core::segmented::{all_zero, SegmentedPlan, Segments};
use plr_core::signature::Signature;
use std::sync::Arc;

/// A multithreaded executor for one signature over segmented inputs of a
/// fixed length (boundary map and correction plan precomputed once,
/// worker threads spawned once and reused across runs).
///
/// # Examples
///
/// ```
/// use plr_parallel::SegmentedRunner;
/// use plr_core::segmented::Segments;
/// use plr_core::signature::Signature;
///
/// let sig: Signature<i64> = "1 : 1".parse()?;
/// let runner = SegmentedRunner::new(sig, Segments::uniform(4, 8), 8)?;
/// let y = runner.run(&[1, 1, 1, 1, 1, 1, 1, 1])?;
/// assert_eq!(y, vec![1, 2, 3, 4, 1, 2, 3, 4]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SegmentedRunner<T> {
    /// The precomputed plan (correction plan, built directly and never
    /// via the shared constant-signature cache, plus the per-chunk
    /// boundary map) driving the shared pipeline.
    pipeline: Pipeline<SegmentedPlan<T>>,
}

impl<T: Element> SegmentedRunner<T> {
    /// Creates a runner with the default configuration for inputs of
    /// exactly `len` elements segmented by `segments`.
    ///
    /// # Errors
    ///
    /// See [`SegmentedRunner::with_config`].
    pub fn new(
        signature: Signature<T>,
        segments: Segments,
        len: usize,
    ) -> Result<Self, EngineError> {
        Self::with_config(signature, segments, len, RunnerConfig::default())
    }

    /// Creates a runner with an explicit configuration. The
    /// [`RunnerConfig::plan`] field is ignored — the boundary map is not
    /// part of the constant-signature plan cache's key, so segmented
    /// runners always build their correction plan directly and never
    /// consult (or populate) that cache.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidChunkSize`] when the chunk size is
    /// zero or smaller than the recurrence order, and
    /// [`EngineError::InputTooLarge`] past `2^30` elements.
    pub fn with_config(
        signature: Signature<T>,
        segments: Segments,
        len: usize,
        config: RunnerConfig,
    ) -> Result<Self, EngineError> {
        let plan = SegmentedPlan::build(&signature, segments, len, config.chunk_size)?;
        Ok(Self::from_plan(plan, config))
    }

    /// Wraps an already-built plan (e.g. one with the sparse fast path
    /// toggled via [`SegmentedPlan::with_sparse`]). The configuration's
    /// chunk size is overridden by the plan's — they must agree for the
    /// boundary map to describe the chunks the runner slices.
    pub fn from_plan(plan: SegmentedPlan<T>, mut config: RunnerConfig) -> Self {
        config.chunk_size = plan.chunk_size();
        SegmentedRunner {
            pipeline: Pipeline::new(Arc::new(plan), config, None),
        }
    }

    /// The precomputed segmented plan (correction plan + boundary map),
    /// shared with rows dispatched through [`SegmentedRunner::run_rows`] /
    /// [`SegmentedRunner::stream`].
    pub fn plan(&self) -> &Arc<SegmentedPlan<T>> {
        &self.pipeline.plan
    }

    runner_methods!();
    bound_row_methods!(RowTask::segmented);
}

/// The segmented algebra: the constant algebra's carries, clipped at
/// segment boundaries. Chunks holding a boundary are resets (they publish
/// the carries of their tail past the last boundary as their global
/// state, and floor every look-back); all-zero chunks skip their solve
/// when the plan's sparse path is on.
impl<T: Element> CarryAlgebra<T> for SegmentedPlan<T> {
    fn bound_len(&self) -> Option<usize> {
        Some(self.len())
    }

    /// Never touches the constant-signature plan cache.
    fn base_stats(&self) -> RunStats {
        RunStats {
            plan_kind: self.correction().kind(),
            kernel: self.correction().solve().kind(),
            correction_taps: self.correction().correction_taps() as u64,
            ..RunStats::default()
        }
    }

    fn stash(&self, data: &[T]) -> Vec<Vec<T>> {
        self.stash_boundaries(data)
    }

    fn solve(
        &self,
        c: usize,
        chunk: &mut [T],
        prev_raw: &[T],
        _history: Option<&[T]>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> Solved<T> {
        let solved = self.map_solve_chunk(chunk, c, prev_raw, keep_going);
        Solved {
            slices: solved.slices,
            state: solved.completed.then(|| self.local_state(c, chunk)),
            kernel: KernelKind::Unknown,
        }
    }

    fn local_state(&self, c: usize, chunk: &[T]) -> Vec<T> {
        let tail = if self.map().has_resets(c) {
            self.map().global_tail_start(c)
        } else {
            0
        };
        carries_of(&chunk[tail..], self.order())
    }

    fn fixup(&self, _c: usize, prev: &[T], local: &[T], len: usize) -> Vec<T> {
        self.correction().fixup_carries(prev, local, len)
    }

    /// Only the prefix before the first in-chunk boundary continues the
    /// incoming segment.
    fn correct(&self, c: usize, chunk: &mut [T], prev: &[T]) {
        let limit = self.map().correct_limit(c, chunk.len());
        self.correction().correct_chunk(&mut chunk[..limit], prev);
    }

    fn is_reset(&self, c: usize) -> bool {
        self.map().has_resets(c)
    }

    /// The map reads the raw chunk and its stash: a chunk is zero after
    /// it only when both are, so a nonzero stash keeps a zero chunk.
    fn is_skippable(&self, chunk: &[T], prev_raw: &[T]) -> bool {
        self.sparse() && all_zero(prev_raw) && all_zero(chunk)
    }

    fn carries_reset(&self, len: usize) -> bool {
        self.correction().resets_carries(len)
    }

    /// Carries never cross a boundary, and the nearest reset chunk
    /// publishes unconditionally — the role chunk 0 plays otherwise.
    fn lookback_floor(&self, j: usize) -> usize {
        self.map().nearest_reset_at_or_before(j).unwrap_or(0)
    }

    fn needs_correction(&self, c: usize, len: usize) -> bool {
        self.map().correct_limit(c, len) > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plr_core::segmented::run_serial;

    fn sig2() -> Signature<i64> {
        "1:2,-1".parse().unwrap()
    }

    fn check_config(segments: &Segments, input: &[i64], config: RunnerConfig) {
        let runner =
            SegmentedRunner::with_config(sig2(), segments.clone(), input.len(), config).unwrap();
        let got = runner.run(input).unwrap();
        assert_eq!(got, run_serial(&sig2(), segments, input));
    }

    #[test]
    fn matches_serial_across_geometries() {
        let input: Vec<i64> = (0..4000).map(|i| (i % 11) - 5).collect();
        let config = RunnerConfig {
            chunk_size: 256,
            threads: 4,
            ..Default::default()
        };
        for segments in [
            Segments::uniform(97, input.len()),
            Segments::uniform(256, input.len()),
            Segments::from_starts(vec![0]).unwrap(),
            Segments::from_starts(vec![0, 1, 2, 3, 3999]).unwrap(),
        ] {
            check_config(&segments, &input, config);
        }
    }

    #[test]
    fn reset_and_skip_counters_report() {
        let n = 4096;
        let segments = Segments::uniform(1000, n);
        // Nonzero only in the first chunk: later chunks hit the sparse
        // skip; chunks containing the segment starts count as resets.
        let mut input = vec![0i64; n];
        for (i, v) in input.iter_mut().take(256).enumerate() {
            *v = (i % 7) as i64 - 3;
        }
        let runner = SegmentedRunner::with_config(
            sig2(),
            segments.clone(),
            n,
            RunnerConfig {
                chunk_size: 256,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let mut data = input.clone();
        let stats = runner.run_in_place(&mut data).unwrap();
        assert_eq!(data, run_serial(&sig2(), &segments, &input));
        assert_eq!(
            stats.reset_chunks, 4,
            "starts 1000/2000/3000/4000 each land mid-chunk"
        );
        assert!(stats.skipped_chunks > 0, "zero chunks must be skipped");
        assert_eq!(stats.plan_cache_hits + stats.plan_cache_misses, 0);
    }

    #[test]
    fn streamed_row_stats_match_run_rows() {
        let n = 4096;
        let segments = Segments::uniform(1000, n);
        let runner = SegmentedRunner::with_config(
            sig2(),
            segments,
            n,
            RunnerConfig {
                chunk_size: 512,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let input: Vec<i64> = (0..n as i64).map(|i| i % 7 - 3).collect();
        let mut blocked = input.clone();
        let blocking = runner.run_rows(&mut blocked, n).unwrap();
        let stream = runner.stream();
        let (streamed, outcome) = stream.push_row(input).join();
        let row = outcome.unwrap();
        assert_eq!(streamed, blocked);
        assert_eq!(blocking.chunks, 8);
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
        let width = 100;
        let segments = Segments::uniform(30, width);
        let runner = SegmentedRunner::with_config(
            sig2(),
            segments.clone(),
            width,
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
        let row: Vec<i64> = (0..width as i64).map(|i| i % 7 - 3).collect();
        let (got, outcome) = stream.push_row(row.clone()).join();
        outcome.unwrap();
        assert_eq!(got, run_serial(&sig2(), &segments, &row));
        assert_eq!(stream.finish().unwrap().rows, 1);
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let runner = SegmentedRunner::new(sig2(), Segments::uniform(4, 0), 0).unwrap();
        assert_eq!(runner.run(&[]).unwrap(), Vec::<i64>::new());
        let stats = runner.run_in_place(&mut []).unwrap();
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let runner = SegmentedRunner::new(sig2(), Segments::uniform(4, 16), 16).unwrap();
        assert!(matches!(
            runner.run(&[1, 2, 3]),
            Err(EngineError::LengthMismatch {
                expected: 16,
                got: 3
            })
        ));
    }
}
