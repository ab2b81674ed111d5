//! Segmented recurrences — restart boundaries inside one input.
//!
//! The paper's future work includes "support inputs that consist of
//! multiple signatures". This module implements the independently useful
//! half of that: one signature over an input divided into *segments*, with
//! the recurrence history reset at every segment start (the segmented
//! prefix sum generalized to arbitrary feedback). Batched signal
//! processing — many independent audio clips, rows of an image, per-key
//! scans — is exactly this shape.
//!
//! Segments compose with the chunked parallel machinery because a reset is
//! just a zero carry: a chunk that begins inside a segment needs carries
//! only from its own segment, and the correction of element `i` is
//! suppressed once `i` crosses a boundary. [`SegmentedPlan`] packages that
//! composition for the parallel tier: a [`CorrectionPlan`] (built directly,
//! never through the shared constant-signature plan cache — the boundary
//! map is not part of the cache key, so a cached entry must never serve a
//! segmented run) plus a per-chunk [`BoundaryMap`] classifying every chunk
//! as *interior* (ordinary look-back correction) or *reset* (its tail past
//! the last in-chunk boundary is globally final the moment its local solve
//! lands, and its prefix before the first boundary is all that ever gets
//! corrected). Chunks whose raw input, with the raw inputs their FIR reads
//! before them, is entirely zero can skip their map and local solve
//! outright — the correction pass *is* their output and their
//! carries reduce to the factor-table fix-up (a companion-power multiply)
//! of zero locals.

use crate::blocked::{fir_in_place, SlicedSolve};
use crate::element::Element;
use crate::engine::MAX_INPUT_LEN;
use crate::error::EngineError;
use crate::nacci::{carries_of, CorrectionTable};
use crate::plan::{CorrectionPlan, PlanRequest};
use crate::serial;
use crate::signature::Signature;

/// Segment boundaries: sorted start indices (index 0 is implicit for any
/// non-empty input; an *empty* boundary set — only produced by
/// [`Segments::uniform`] over zero elements — describes an empty input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segments {
    starts: Vec<usize>,
}

impl Segments {
    /// Creates segment boundaries from start indices (need not include 0,
    /// must be strictly increasing).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::UnsupportedSignature`] if the starts are not
    /// strictly increasing.
    pub fn from_starts(starts: Vec<usize>) -> Result<Self, EngineError> {
        let mut s = starts;
        if s.first() != Some(&0) {
            s.insert(0, 0);
        }
        if !s.windows(2).all(|w| w[0] < w[1]) {
            return Err(EngineError::UnsupportedSignature {
                reason: "segment starts must be strictly increasing".to_owned(),
            });
        }
        Ok(Segments { starts: s })
    }

    /// Uniform segments of `len` elements covering `n`. Covering zero
    /// elements yields an empty boundary set (no phantom segment), so an
    /// empty input runs to an empty result through every executor.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn uniform(len: usize, n: usize) -> Self {
        assert!(len > 0, "segment length must be positive");
        Segments {
            starts: (0..n).step_by(len).collect(),
        }
    }

    /// The segment start indices (first is always 0 when any exist).
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// The start of the segment containing `index` (0 when the boundary
    /// set is empty).
    pub fn segment_start(&self, index: usize) -> usize {
        match self.starts.binary_search(&index) {
            Ok(i) => self.starts[i],
            Err(0) => 0,
            Err(i) => self.starts[i - 1],
        }
    }

    /// The `[start, end)` ranges of every non-empty segment of an input of
    /// `len` elements (starts at or past `len` contribute nothing; an
    /// empty boundary set over a non-empty input is one whole segment).
    pub fn ranges(&self, len: usize) -> Vec<(usize, usize)> {
        let mut bounds: Vec<usize> = self.starts.iter().copied().filter(|&s| s < len).collect();
        if len > 0 && bounds.first() != Some(&0) {
            bounds.insert(0, 0);
        }
        bounds.push(len);
        bounds
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| (w[0], w[1]))
            .collect()
    }

    /// The per-chunk boundary map for an input of `len` elements split
    /// into `chunk_size`-element chunks: which chunks contain segment
    /// starts (a *reset* inside the chunk), at which in-chunk offsets.
    ///
    /// Index 0 never counts as a reset — chunk 0 starts from zero history
    /// unconditionally, so a boundary there changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn boundary_map(&self, len: usize, chunk_size: usize) -> BoundaryMap {
        assert!(chunk_size > 0, "chunk size must be positive");
        let num_chunks = len.div_ceil(chunk_size);
        let mut resets = vec![Vec::new(); num_chunks];
        for &s in self.starts.iter().filter(|&&s| s > 0 && s < len) {
            resets[s / chunk_size].push(s % chunk_size);
        }
        let mut nearest = vec![None; num_chunks];
        let mut last = None;
        for (c, nearest_c) in nearest.iter_mut().enumerate() {
            if !resets[c].is_empty() {
                last = Some(c);
            }
            *nearest_c = last;
        }
        BoundaryMap { resets, nearest }
    }
}

/// Per-chunk segment-reset classification (see [`Segments::boundary_map`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryMap {
    /// Sorted in-chunk offsets of segment starts, per chunk. Offset 0
    /// means the chunk begins exactly on a boundary (its whole body is
    /// globally final after the local solve; nothing to correct).
    resets: Vec<Vec<usize>>,
    /// Index of the nearest reset chunk at or before each chunk, if any —
    /// the static floor of the look-back walk.
    nearest: Vec<Option<usize>>,
}

impl BoundaryMap {
    /// Number of chunks the map covers.
    pub fn num_chunks(&self) -> usize {
        self.resets.len()
    }

    /// Sorted in-chunk reset offsets of chunk `c`.
    pub fn resets(&self, c: usize) -> &[usize] {
        &self.resets[c]
    }

    /// Whether chunk `c` contains at least one segment boundary.
    pub fn has_resets(&self, c: usize) -> bool {
        !self.resets[c].is_empty()
    }

    /// How far the correction of chunk `c` may reach: up to the first
    /// in-chunk boundary (`chunk_len` when the chunk is interior, 0 when
    /// the chunk begins on a boundary).
    pub fn correct_limit(&self, c: usize, chunk_len: usize) -> usize {
        self.resets[c].first().copied().unwrap_or(chunk_len)
    }

    /// The in-chunk offset where chunk `c`'s globally-final tail begins
    /// (its last reset). Call only for chunks with resets.
    pub fn global_tail_start(&self, c: usize) -> usize {
        *self.resets[c].last().expect("chunk has resets")
    }

    /// The nearest chunk at or before `c` containing a reset — look-back
    /// from any chunk past it never walks further.
    pub fn nearest_reset_at_or_before(&self, c: usize) -> Option<usize> {
        self.nearest[c]
    }
}

/// The precomputed execution plan for one segmented workload: a
/// correction plan (factor table, per-list strategies, FIR and solve
/// kernels) plus the boundary map for a *bound* input length.
///
/// The correction plan is built directly — never through the shared
/// constant-signature plan cache. The cache key has no boundary map, so a
/// segmented plan must neither reuse a cached unsegmented entry nor
/// insert one a later unsegmented run could pick up.
#[derive(Debug)]
pub struct SegmentedPlan<T> {
    plan: CorrectionPlan<T>,
    segments: Segments,
    map: BoundaryMap,
    len: usize,
    chunk_size: usize,
    /// Whether all-zero chunks may skip their local solve (the sparse
    /// fast path). On by default; the dense path is kept reachable for
    /// benchmarking and differential testing.
    sparse: bool,
}

impl<T: Element> SegmentedPlan<T> {
    /// Builds the plan for `signature` over inputs of exactly `len`
    /// elements segmented by `segments`, chunked at `chunk_size`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidChunkSize`] when `chunk_size` is zero
    /// or smaller than the recurrence order, and
    /// [`EngineError::InputTooLarge`] past 2^30 elements.
    pub fn build(
        signature: &Signature<T>,
        segments: Segments,
        len: usize,
        chunk_size: usize,
    ) -> Result<Self, EngineError> {
        if chunk_size == 0 || chunk_size < signature.order() {
            return Err(EngineError::InvalidChunkSize { chunk_size });
        }
        if len > MAX_INPUT_LEN {
            return Err(EngineError::InputTooLarge {
                len,
                max: MAX_INPUT_LEN,
            });
        }
        let plan = CorrectionPlan::build(signature, PlanRequest::new::<T>(chunk_size));
        let map = segments.boundary_map(len, chunk_size);
        Ok(SegmentedPlan {
            plan,
            segments,
            map,
            len,
            chunk_size,
            sparse: true,
        })
    }

    /// Enables or disables the sparse all-zero-chunk fast path.
    #[must_use]
    pub fn with_sparse(mut self, sparse: bool) -> Self {
        self.sparse = sparse;
        self
    }

    /// Whether all-zero chunks skip their local solve.
    pub fn sparse(&self) -> bool {
        self.sparse
    }

    /// The bound input length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bound length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements per chunk.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Chunks per run.
    pub fn num_chunks(&self) -> usize {
        self.len.div_ceil(self.chunk_size)
    }

    /// The recurrence order.
    pub fn order(&self) -> usize {
        self.plan.order()
    }

    /// The segment boundaries.
    pub fn segments(&self) -> &Segments {
        &self.segments
    }

    /// The per-chunk boundary map.
    pub fn map(&self) -> &BoundaryMap {
        &self.map
    }

    /// The underlying correction plan (factor table, strategies, kernels).
    pub fn correction(&self) -> &CorrectionPlan<T> {
        &self.plan
    }

    /// Whether the signature has no FIR map stage.
    pub fn is_pure_feedback(&self) -> bool {
        self.plan.signature().is_pure_feedback()
    }

    /// The in-chunk cut points splitting chunk `c` (of `chunk_len`
    /// elements) into maximal single-segment pieces: always starts with 0
    /// and ends with `chunk_len`.
    fn piece_cuts(&self, c: usize, chunk_len: usize) -> Vec<usize> {
        let rs = self.map.resets(c);
        let mut cuts = Vec::with_capacity(rs.len() + 2);
        cuts.push(0);
        cuts.extend(rs.iter().copied().filter(|&r| r > 0 && r < chunk_len));
        cuts.push(chunk_len);
        cuts
    }

    /// Stashes, for every chunk after the first, the original inputs its
    /// in-place FIR needs from across its left boundary — truncated at
    /// the containing segment's start, because FIR taps never cross a
    /// segment boundary (each segment filters as its own sequence).
    pub fn stash_boundaries(&self, data: &[T]) -> Vec<Vec<T>> {
        let p = self.plan.fir().len();
        if self.is_pure_feedback() || p <= 1 {
            return Vec::new();
        }
        (1..self.num_chunks())
            .map(|c| {
                let start = c * self.chunk_size;
                let seg = self.segments.segment_start(start);
                data[start.saturating_sub(p - 1).max(seg)..start].to_vec()
            })
            .collect()
    }

    /// The segment-aware FIR map for chunk `c`, in place: each in-chunk
    /// piece filters as its own sequence; the first piece continues the
    /// segment it shares with earlier chunks through the boundary stash.
    pub fn fir_chunk(&self, chunk: &mut [T], c: usize, boundaries: &[Vec<T>]) {
        if self.is_pure_feedback() {
            return;
        }
        let start = c * self.chunk_size;
        let first_fresh = self.map.resets(c).first() == Some(&0);
        for w in self.piece_cuts(c, chunk.len()).windows(2) {
            let (a, b) = (w[0], w[1]);
            if a >= b {
                continue;
            }
            if a == 0 && !first_fresh {
                // Continues the segment containing `start` (for chunk 0,
                // the head of the data): taps may reach the stash but
                // never past the segment start.
                let seg = self.segments.segment_start(start);
                let prev: &[T] = if c == 0 || boundaries.is_empty() {
                    &[]
                } else {
                    &boundaries[c - 1]
                };
                fir_in_place(self.plan.fir(), prev, start - seg, &mut chunk[..b]);
            } else {
                fir_in_place(self.plan.fir(), &[], 0, &mut chunk[a..b]);
            }
        }
    }

    /// The piecewise local solve for chunk `c`, in place: every piece
    /// solves from zero history (the first piece is the ordinary
    /// decoupled local solve; pieces past a reset are *globally* final).
    /// Time-sliced against `keep_going` like the unsegmented kernels.
    pub fn solve_chunk(
        &self,
        chunk: &mut [T],
        c: usize,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> SlicedSolve {
        let cuts = self.piece_cuts(c, chunk.len());
        pieces(chunk, cuts.windows(2).map(|w| (w[0], w[1])), |_, piece| {
            self.plan.solve().solve_in_place_sliced(piece, keep_going)
        })
    }

    /// The fused form of [`fir_chunk`](Self::fir_chunk) then
    /// [`solve_chunk`](Self::solve_chunk): every piece of chunk `c` maps
    /// and solves in one pass where the correction plan fuses them
    /// ([`CorrectionPlan::map_solve_sliced`]). `prev_raw` is the chunk's
    /// entry in [`stash_boundaries`](Self::stash_boundaries) (empty for
    /// chunk 0); only the first piece, which continues the segment of
    /// earlier chunks, reads it.
    pub fn map_solve_chunk(
        &self,
        chunk: &mut [T],
        c: usize,
        prev_raw: &[T],
        keep_going: &mut dyn FnMut() -> bool,
    ) -> SlicedSolve {
        let continues = self.map.resets(c).first() != Some(&0);
        let cuts = self.piece_cuts(c, chunk.len());
        pieces(chunk, cuts.windows(2).map(|w| (w[0], w[1])), |a, piece| {
            let prev = if a == 0 && continues { prev_raw } else { &[] };
            self.plan.map_solve_sliced(piece, prev, keep_going)
        })
    }

    /// The whole-row serial sweep shared by the batch and streaming
    /// layers' segmented rows: each segment maps and solves as its own
    /// sequence from zero history, time-sliced against `keep_going`.
    pub fn map_solve_row(
        &self,
        row: &mut [T],
        keep_going: &mut dyn FnMut() -> bool,
    ) -> SlicedSolve {
        pieces(
            row,
            self.segments.ranges(row.len()).into_iter(),
            |_, piece| self.plan.map_solve_sliced(piece, &[], keep_going),
        )
    }
}

/// Runs `op(a, &mut data[a..b])` on each non-empty `[a, b)` piece in
/// order, summing the slices, until one stops early.
fn pieces<T>(
    data: &mut [T],
    pieces: impl Iterator<Item = (usize, usize)>,
    mut op: impl FnMut(usize, &mut [T]) -> SlicedSolve,
) -> SlicedSolve {
    let mut total = SlicedSolve {
        completed: true,
        slices: 0,
    };
    for (a, b) in pieces.filter(|(a, b)| a < b) {
        let out = op(a, &mut data[a..b]);
        total.slices += out.slices;
        if !out.completed {
            total.completed = false;
            break;
        }
    }
    total
}

/// Whether every element of the chunk is exactly zero (the sparse-skip
/// predicate; short-circuits on the first nonzero).
pub fn all_zero<T: Element>(chunk: &[T]) -> bool {
    // Branch-free within each block so the scan vectorizes; the block
    // granularity keeps the early exit for clearly-nonzero chunks.
    let mut blocks = chunk.chunks_exact(64);
    for block in &mut blocks {
        let mut nonzero = false;
        for x in block {
            nonzero |= !x.is_zero();
        }
        if nonzero {
            return false;
        }
    }
    blocks.remainder().iter().all(|x| x.is_zero())
}

/// Computes the recurrence over `input` with history reset at each segment
/// start, serially (the reference implementation).
pub fn run_serial<T: Element>(sig: &Signature<T>, segments: &Segments, input: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(input.len());
    for (s, e) in segments.ranges(input.len()) {
        out.extend(serial::run(sig, &input[s..e]));
    }
    out
}

/// Computes the segmented recurrence with the chunked two-phase structure:
/// local solves per chunk (chunks never integrate across a segment start),
/// then carry propagation that zeroes carries across boundaries.
///
/// This demonstrates that the paper's machinery extends to segmented
/// inputs: the correction of a chunk only applies to the prefix of the
/// chunk that shares a segment with the incoming carries.
///
/// # Errors
///
/// Returns [`EngineError::InvalidChunkSize`] if `chunk_size` is zero or
/// smaller than the order.
pub fn run_chunked<T: Element>(
    sig: &Signature<T>,
    segments: &Segments,
    input: &[T],
    chunk_size: usize,
) -> Result<Vec<T>, EngineError> {
    assert!(
        sig.is_pure_feedback(),
        "apply the map stage first (Signature::split)"
    );
    let k = sig.order();
    if chunk_size == 0 || chunk_size < k {
        return Err(EngineError::InvalidChunkSize { chunk_size });
    }
    let table = CorrectionTable::generate(sig.feedback(), chunk_size);
    let n = input.len();
    let mut data = input.to_vec();

    // Local solves: each chunk restarts at its own segment boundaries.
    for (c, chunk) in data.chunks_mut(chunk_size).enumerate() {
        let base = c * chunk_size;
        let mut s = 0;
        while s < chunk.len() {
            // Next boundary after base + s.
            let next = segments
                .starts()
                .iter()
                .copied()
                .find(|&b| b > base + s)
                .unwrap_or(n)
                .min(base + chunk.len());
            let end_local = next - base;
            serial::recursive_in_place(sig.feedback(), &mut chunk[s..end_local]);
            s = end_local;
        }
    }

    // Carry propagation: chunk c is corrected only while it still belongs
    // to the same segment as the carries from chunk c-1's tail.
    let mut start = chunk_size;
    while start < n {
        let end = (start + chunk_size).min(n);
        // Carries are valid only if no boundary sits at/just before start…
        let carry_segment = segments.segment_start(start - 1);
        let (prev, rest) = data.split_at_mut(start);
        let carries = carries_of(
            &prev[carry_segment.max(start.saturating_sub(chunk_size))..],
            k,
        );
        // …and the correction stops at the first boundary inside the chunk.
        let stop = segments
            .starts()
            .iter()
            .copied()
            .find(|&b| b > start && b < end)
            .unwrap_or(end);
        if segments.segment_start(start) == carry_segment {
            table.correct_chunk(&mut rest[..stop - start], &carries);
        }
        start += chunk_size;
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig2() -> Signature<i64> {
        "1: 2, -1".parse().unwrap()
    }

    #[test]
    fn uniform_segments_reset_the_prefix_sum() {
        let sig: Signature<i64> = "1:1".parse().unwrap();
        let segments = Segments::uniform(4, 10);
        let input: Vec<i64> = (1..=10).collect();
        let out = run_serial(&sig, &segments, &input);
        assert_eq!(out, vec![1, 3, 6, 10, 5, 11, 18, 26, 9, 19]);
    }

    #[test]
    fn uniform_over_zero_elements_has_no_phantom_start() {
        let s = Segments::uniform(4, 0);
        assert!(s.starts().is_empty(), "no phantom segment over nothing");
        assert_eq!(s.segment_start(0), 0);
        assert!(s.ranges(0).is_empty());
        let sig = sig2();
        assert_eq!(run_serial(&sig, &s, &[]), Vec::<i64>::new());
        assert_eq!(run_chunked(&sig, &s, &[], 8).unwrap(), Vec::<i64>::new());
        // Non-empty boundary sets over empty inputs stay empty too.
        let s = Segments::uniform(4, 10);
        assert_eq!(run_serial(&sig, &s, &[]), Vec::<i64>::new());
        assert_eq!(run_chunked(&sig, &s, &[], 8).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn segment_start_lookup() {
        let s = Segments::from_starts(vec![0, 5, 12]).unwrap();
        assert_eq!(s.segment_start(0), 0);
        assert_eq!(s.segment_start(4), 0);
        assert_eq!(s.segment_start(5), 5);
        assert_eq!(s.segment_start(11), 5);
        assert_eq!(s.segment_start(100), 12);
    }

    #[test]
    fn from_starts_normalizes_and_validates() {
        let s = Segments::from_starts(vec![3, 7]).unwrap();
        assert_eq!(s.starts(), &[0, 3, 7]);
        assert!(Segments::from_starts(vec![0, 5, 5]).is_err());
        assert!(Segments::from_starts(vec![0, 7, 3]).is_err());
    }

    #[test]
    fn ranges_clamp_and_skip_out_of_range_starts() {
        let s = Segments::from_starts(vec![0, 5, 12]).unwrap();
        assert_eq!(s.ranges(8), vec![(0, 5), (5, 8)]);
        assert_eq!(s.ranges(20), vec![(0, 5), (5, 12), (12, 20)]);
        assert_eq!(s.ranges(0), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn boundary_map_classifies_chunks() {
        let s = Segments::from_starts(vec![0, 5, 13, 16]).unwrap();
        let map = s.boundary_map(30, 8);
        assert_eq!(map.num_chunks(), 4);
        assert_eq!(map.resets(0), &[5]);
        assert_eq!(map.resets(1), &[5]); // 13 = 8 + 5
        assert_eq!(map.resets(2), &[0]); // 16 on the chunk edge
        assert!(map.resets(3).is_empty());
        assert!(map.has_resets(2) && !map.has_resets(3));
        assert_eq!(map.correct_limit(0, 8), 5);
        assert_eq!(map.correct_limit(2, 8), 0);
        assert_eq!(map.correct_limit(3, 6), 6);
        assert_eq!(map.global_tail_start(1), 5);
        assert_eq!(map.nearest_reset_at_or_before(3), Some(2));
        assert_eq!(map.nearest_reset_at_or_before(1), Some(1));
        // Index 0 never counts as a reset.
        let single = Segments::from_starts(vec![0]).unwrap();
        let map = single.boundary_map(30, 8);
        assert!((0..map.num_chunks()).all(|c| !map.has_resets(c)));
        assert_eq!(map.nearest_reset_at_or_before(3), None);
    }

    #[test]
    fn plan_pieces_match_serial_per_chunk() {
        let sig = sig2();
        let segments = Segments::from_starts(vec![0, 5, 13, 21]).unwrap();
        let input: Vec<i64> = (0..30).map(|i| (i % 5) - 2).collect();
        let plan = SegmentedPlan::build(&sig, segments.clone(), input.len(), 8).unwrap();
        // Piecewise local solves + boundary-limited correction must
        // reproduce the chunked reference exactly.
        let mut data = input.clone();
        let boundaries = plan.stash_boundaries(&data);
        let m = plan.chunk_size();
        for (c, chunk) in data.chunks_mut(m).enumerate() {
            plan.fir_chunk(chunk, c, &boundaries);
            let out = plan.solve_chunk(chunk, c, &mut || true);
            assert!(out.completed);
        }
        // Sequential fix-up: interior chunks chain carries, reset chunks
        // restart them from their globally-final tail.
        let k = sig.order();
        let mut g = carries_of(&data[..m.min(data.len())], k);
        if plan.map().has_resets(0) {
            g = carries_of(&data[plan.map().global_tail_start(0)..m.min(data.len())], k);
        }
        for c in 1..plan.num_chunks() {
            let (s, e) = (c * m, ((c + 1) * m).min(input.len()));
            let limit = plan.map().correct_limit(c, e - s);
            let (prev, rest) = data.split_at_mut(s);
            let _ = prev;
            if limit > 0 {
                plan.correction().correct_chunk(&mut rest[..limit], &g);
            }
            g = if plan.map().has_resets(c) {
                carries_of(&data[s + plan.map().global_tail_start(c)..e], k)
            } else {
                carries_of(&data[s..e], k)
            };
        }
        assert_eq!(data, run_serial(&sig, &segments, &input));
    }

    #[test]
    fn plan_row_sweep_matches_run_serial_with_fir() {
        let sig: Signature<f64> = "0.81,-1.62,0.81:1.6,-0.64".parse().unwrap();
        let segments = Segments::from_starts(vec![0, 37, 64, 65, 200]).unwrap();
        let input: Vec<f64> = (0..300).map(|i| ((i % 17) as f64) * 0.25 - 2.0).collect();
        let plan = SegmentedPlan::build(&sig, segments.clone(), input.len(), 64).unwrap();
        let mut row = input.clone();
        let out = plan.map_solve_row(&mut row, &mut || true);
        assert!(out.completed);
        let expect = run_serial(&sig, &segments, &input);
        for (i, (&g, &e)) in row.iter().zip(&expect).enumerate() {
            assert!(
                (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                "i={i}: {g} vs {e}"
            );
        }
    }

    #[test]
    fn plan_validates_geometry() {
        let sig = sig2();
        let segments = Segments::uniform(4, 100);
        assert!(matches!(
            SegmentedPlan::build(&sig, segments.clone(), 100, 0),
            Err(EngineError::InvalidChunkSize { .. })
        ));
        assert!(matches!(
            SegmentedPlan::build(&sig, segments.clone(), 100, 1),
            Err(EngineError::InvalidChunkSize { .. })
        ));
        let plan = SegmentedPlan::build(&sig, segments, 100, 16).unwrap();
        assert_eq!(plan.num_chunks(), 7);
        assert!(plan.sparse());
        assert!(!plan.with_sparse(false).sparse());
    }

    #[test]
    fn all_zero_short_circuits() {
        assert!(all_zero(&[0i64; 8]));
        assert!(!all_zero(&[0i64, 0, 1, 0]));
        assert!(all_zero::<f64>(&[]));
    }

    #[test]
    fn chunked_matches_serial_when_boundaries_align_with_chunks() {
        let segments = Segments::uniform(8, 64);
        let input: Vec<i64> = (0..64).map(|i| (i % 7) - 3).collect();
        let expect = run_serial(&sig2(), &segments, &input);
        let got = run_chunked(&sig2(), &segments, &input, 8).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn chunked_matches_serial_with_misaligned_boundaries() {
        // Boundaries at 0, 5, 13, 21 with chunks of 8: boundaries fall in
        // the middle of chunks.
        let segments = Segments::from_starts(vec![0, 5, 13, 21]).unwrap();
        let input: Vec<i64> = (0..30).map(|i| (i % 5) - 2).collect();
        let expect = run_serial(&sig2(), &segments, &input);
        let got = run_chunked(&sig2(), &segments, &input, 8).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn single_segment_reduces_to_the_plain_recurrence() {
        let segments = Segments::from_starts(vec![0]).unwrap();
        let input: Vec<i64> = (0..100).map(|i| (i % 9) - 4).collect();
        let got = run_chunked(&sig2(), &segments, &input, 16).unwrap();
        assert_eq!(got, serial::run(&sig2(), &input));
    }

    #[test]
    fn boundary_exactly_at_a_chunk_edge_blocks_the_carries() {
        let segments = Segments::from_starts(vec![0, 16]).unwrap();
        let input: Vec<i64> = (1..=32).collect();
        let expect = run_serial(&sig2(), &segments, &input);
        let got = run_chunked(&sig2(), &segments, &input, 16).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn many_tiny_segments() {
        let segments = Segments::uniform(1, 20);
        let input: Vec<i64> = (1..=20).collect();
        // Every element is its own segment: output == input.
        assert_eq!(run_serial(&sig2(), &segments, &input), input);
        assert_eq!(run_chunked(&sig2(), &segments, &input, 4).unwrap(), input);
    }

    #[test]
    fn rejects_bad_chunk_sizes() {
        let segments = Segments::uniform(4, 8);
        let input = vec![1i64; 8];
        assert!(run_chunked(&sig2(), &segments, &input, 0).is_err());
        assert!(run_chunked(&sig2(), &segments, &input, 1).is_err());
    }
}
