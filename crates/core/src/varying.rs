//! Time-varying / affine recurrences lowered onto the chunk machinery.
//!
//! The constant-coefficient engines solve `y[i] = x[i] + Σ_j b_j·y[i-j]`
//! with one coefficient vector for the whole input. This module lifts the
//! same chunk/carry decomposition to **per-element** coefficients
//!
//! ```text
//! y[i] = x[i] + d[i] + Σ_{j=1..k} a_j[i] · y[i-j]
//! ```
//!
//! (the optional `d[i]` is the affine offset), the form selective
//! state-space models (Mamba-style gates, `k = 1`) and adaptive IIR
//! filters (`k = 2`) take.
//!
//! ## Carry algebra: from `k` scalars to a `k×k` matrix
//!
//! With constant coefficients a chunk's effect on the carry state is
//! captured by `k` n-nacci factor lists hoisted to plan time. With
//! varying coefficients the factors differ per element, but the state
//! vector `s[i] = (y[i], …, y[i-k+1])` still advances linearly:
//! `s[i] = C_i · s[i-1] + z[i]·e₀` where `C_i` is the companion matrix of
//! element `i`'s row and `z[i] = x[i] + d[i]`. Over a chunk spanning
//! `[t, t+L)` this composes to
//!
//! ```text
//! s_end = M_chunk · s_start + s_local,   M_chunk = C_{t+L-1} ··· C_t
//! ```
//!
//! with `s_local` the state the chunk produces from a zero start (its
//! *local* solve). `M_chunk` depends only on the coefficients — never the
//! input — so a [`VaryingPlan`] composes each chunk's transition once,
//! via the incremental `O(k²)`-per-element [`Matrix::companion_push`]
//! product, and keeps it for every later run, as the constant path keeps
//! its factor tables. It does so per chunk, on first use: the worker that
//! solves a chunk composes its transition just before the solve, with
//! the chunk's coefficients then in cache, so no serial pass over the
//! coefficients precedes a run. The `(M_chunk, s_local)` pair is the
//! element of the associative scan over affine maps (below) that the
//! chunk publishes. At run time the carry chain is `k`-vector fix-ups
//! (`M·g + local`), and each chunk's per-element correction is a forward
//! companion pass (`O(k)` per element), not a matrix product.
//!
//! ## The affine term as a homogeneous block
//!
//! Folding the offset stream into the input (`z = x + d`) keeps the
//! lowering linear, and the chunk's *action on the carry* is then the
//! affine map `g ↦ M_chunk·g + s_local`. [`AffineMap`] is that algebra
//! made explicit: composition and application agree with embedding the
//! map as the `(k+1)×(k+1)` homogeneous block `[[M, b], [0, 1]]`
//! ([`AffineMap::to_homogeneous`]), which is how the affine term rides
//! the same associative machinery — the offset column is just the last
//! column of the homogeneous matrix.
//!
//! ## Fast paths
//!
//! * **Order-1 fused scan** (the Mamba case): the state is one scalar, so
//!   the local solve is the tight loop `y[i] = a[i]·prev + z[i]` and the
//!   correction is `v *= a[i]; y[i] += v` — no matrix machinery at all.
//! * **Lane-parallel order-1 solve** (the paper's chunk trick applied
//!   inside a chunk, DESIGN §6 "level 0"): the tight loop is one
//!   dependent chain, one element per multiply-add latency. A float
//!   order-1 chunk with no constant-row kernel, at least
//!   [`MIN_LANE_CHUNK`] long, whose *prefix decay point* lies inside it
//!   (the first element where the running product of its gates flushes
//!   to zero, found by reading the gates up to there) is instead split
//!   into [`LANES`] sub-blocks, solved in lockstep from zero as
//!   independent chains. The lockstep also proves the gates it loads,
//!   one verdict per sub-block: whether every gate of the sub-block (the
//!   last one's with the elements past the body) is in `[-1, 1]`. Each
//!   sub-block is then fixed up from its predecessor's last value by
//!   `v *= a[i]; y[i] += v`, and stops where `v` flushes to zero only if
//!   its verdict holds: the truncation rule again, sound because past a
//!   non-expansive gate a flushed value cannot regrow. A sub-block
//!   holding an expansive, NaN or infinite gate runs its fix-up to its
//!   end. Only [`KernelTier::Auto`] picks the lanes (the tier in effect
//!   at [`VaryingPlan::build`]); the forced `scalar` and `blocked` tiers
//!   keep the chain as baselines. An `f32` chunk on a CPU with AVX-512F
//!   whose prefix decay point is at most half its 16-lane sub-block
//!   takes 16 lanes instead, one AVX-512 register of chains
//!   ([`crate::simd`]), with the same bits and verdicts as these loops at
//!   16 lanes. The choice reads only the coefficients, the chunk length,
//!   the tier and the CPU, never timing or the run's width.
//! * **Constant chunks**: a chunk whose coefficient rows are all equal is
//!   a constant-coefficient solve, so [`VaryingPlan::build`] classifies it
//!   and selects a register-blocked / SIMD [`SolveKernel`] for it directly
//!   (no [`crate::plan`] involved — varying signatures never touch the
//!   correction-plan cache), and its transition matrix collapses to a
//!   companion power.
//! * **Truncated corrections** (the paper's decay truncation, which a
//!   [`crate::plan::PlanKind::Truncated`] constant plan applies to its
//!   factor lists): each chunk's plan work, done once on its first use
//!   (in a run, by the worker that solves it), composes the chunk's
//!   transition and stops at the first element `d_c` where every entry
//!   of the product flushes to zero ([`Element::flush_denormal`]: below
//!   `MIN_POSITIVE` for floats, exactly zero for integers). That chunk's
//!   matrix is zero, and [`VaryingPlan::correct_chunk`] corrects only its
//!   first `d_c` elements ([`VaryingPlan::correction_len`]). The rule
//!   applies only where the dropped tail is provably negligible: to float
//!   chunks whose every row is non-expansive (`Σ_j |a_j[i]| ≤ 1`, false
//!   for a NaN or infinite coefficient), where a transition below the
//!   flush threshold cannot regrow; and to integer chunks at an exactly
//!   zero product, which wrapping arithmetic keeps zero. Every other
//!   chunk keeps its full transition and full-length correction.
//!
//!   The proof that every row is non-expansive reads every coefficient.
//!   A lane chunk whose plan work has not run yet (every chunk of a fresh
//!   plan that the lane rule puts in lanes) gets it from its lockstep's
//!   verdicts, which load every gate anyway, so its gates are read once:
//!   the solve reads the prefix decay point, runs the lockstep, and fills
//!   the chunk's plan work from the verdicts, with the zero matrix and
//!   `d_c` when all hold and through the eager work when one fails. Every
//!   other first use (an accessor, a constant-row or chain chunk, a chunk
//!   solved from a real history past chunk 0) does the eager work: a
//!   scan of the chunk's rows, then the composition. Either way the cell
//!   gets the same values, and a solve whose cell is already filled and
//!   truncated skips the proof. Which chunk does its plan work first, by
//!   which path and on which thread, never changes the result: the work
//!   reads only the coefficients, and its cell is filled once.
//!
//!   Past chunk 0, a truncated float chunk whose history is known (a
//!   width-1 run, a whole row, the sequential [`VaryingEngine`]) is
//!   solved as the look-back path solves it: the zero-history local
//!   solve, [`VaryingPlan::correct_chunk`], then
//!   [`VaryingPlan::fixup_state`]. So a signature whose chunks past the
//!   first all truncate gives the same float outputs, bit for bit, on
//!   every executor and at every width. Other chunks continue from their
//!   real history directly, which rounds differently.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use crate::blocked::{SlicedSolve, SolveKernel, MAX_BLOCKED_ORDER, SOLVE_SLICE};
use crate::companion::Matrix;
use crate::element::Element;
use crate::engine::{CarryPropagation, EngineConfig, MAX_INPUT_LEN};
use crate::error::EngineError;
use crate::kernel::{self, KernelKind, KernelTier};
use crate::simd::{self, WIDE_LANES};

/// Cap on distinct per-chunk constant-row kernels one plan will build;
/// chunks beyond it fall back to the scalar varying loop. Real workloads
/// with constant stretches use one or two distinct rows.
const MAX_DISTINCT_KERNELS: usize = 16;

/// How many sub-blocks the scalar lane-parallel order-1 solve advances
/// in lockstep (module docs, "Fast paths"). Four chains reach the
/// multiply-add latency bound; six or eight ran slower on the reference
/// host (DESIGN §13 has the probe). An `f32` chunk on AVX-512F may take
/// 16 lanes instead, one vector register's worth, where its prefix decay
/// point is short against the 16-lane sub-block ([`VaryingPlan::build`]):
/// on the ledger's gates at 64 Ki, 0.43 against four lanes' 0.74 ns/elem
/// (`varying_kernel_order1`, DESIGN §13).
pub const LANES: usize = 4;

/// The shortest chunk the plan solves in lanes, at either lane count.
/// Shorter chunks leave the serial tail and the fix-ups a large share of
/// the work; at 2 Ki elements the four lanes still beat the chain
/// (`varying_scan`'s `varying_kernel_order1` group: 1.5 against 2.7
/// ns/elem on the ledger's gates). The 16-lane sub-block of a 2 Ki chunk
/// is 112 elements, shorter than any decay point on the rung's gates, so
/// 16 lanes start at longer chunks.
pub const MIN_LANE_CHUNK: usize = 2048;

/// The lane rule's threshold: an `f32` chunk takes the 16-lane solve
/// when its prefix decay point (on a truncated chunk, its
/// [`VaryingPlan::correction_len`]) times this is at most its 16-lane
/// sub-block. Each of the 15 fix-ups runs about a
/// decay length, and one that reaches its sub-block's end sends all of
/// them back to the serial loop, so the decay point must be short
/// against the sub-block. `varying_kernel_order1`'s gate regimes set
/// it: 16 lanes won at decays of 0.07, 0.28 and 0.38 of the sub-block
/// and tied at 0.58 (DESIGN §13 has the rows).
const WIDE_DECAY_SHARE: usize = 2;

/// A time-varying (and optionally affine) recurrence of order `k`, bound
/// to a fixed input length: one `k`-coefficient feedback row per element,
/// plus an optional per-element offset stream.
///
/// Cloning is cheap — the coefficient and offset streams are shared.
#[derive(Debug, Clone)]
pub struct VaryingSignature<T> {
    order: usize,
    len: usize,
    /// Row-major: `coeffs[i·k + (j-1)]` is `a_j[i]`, the weight of
    /// `y[i-j]` when producing `y[i]`. The caller's vector, moved in.
    coeffs: Arc<Vec<T>>,
    offsets: Option<Arc<Vec<T>>>,
}

impl<T: Element> VaryingSignature<T> {
    /// Builds an order-`k` varying signature from row-major coefficients
    /// (`coeffs[i·k + (j-1)] = a_j[i]`); the bound length is
    /// `coeffs.len() / order`. The signature takes `coeffs` over without
    /// copying it.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnsupportedSignature`] when `order == 0` or
    /// `coeffs.len()` is not a multiple of `order`.
    pub fn new(order: usize, coeffs: Vec<T>) -> Result<Self, EngineError> {
        if order == 0 {
            return Err(EngineError::UnsupportedSignature {
                reason: "varying signatures need order >= 1".into(),
            });
        }
        if !coeffs.len().is_multiple_of(order) {
            return Err(EngineError::UnsupportedSignature {
                reason: format!(
                    "coefficient stream of {} values is not a whole number of order-{order} rows",
                    coeffs.len()
                ),
            });
        }
        let len = coeffs.len() / order;
        Ok(VaryingSignature {
            order,
            len,
            coeffs: Arc::new(coeffs),
            offsets: None,
        })
    }

    /// The order-1 convenience form: `y[i] = gates[i]·y[i-1] + x[i]`, the
    /// selective-scan shape.
    ///
    /// # Errors
    ///
    /// Never fails for order 1; the `Result` mirrors [`Self::new`].
    pub fn first_order(gates: Vec<T>) -> Result<Self, EngineError> {
        Self::new(1, gates)
    }

    /// Attaches a per-element affine offset stream `d` (the recurrence
    /// gains a `+ d[i]` term), taking `offsets` over without copying it.
    ///
    /// # Errors
    ///
    /// [`EngineError::LengthMismatch`] when `offsets.len()` differs from
    /// the signature's bound length.
    pub fn with_offsets(mut self, offsets: Vec<T>) -> Result<Self, EngineError> {
        if offsets.len() != self.len {
            return Err(EngineError::LengthMismatch {
                expected: self.len,
                got: offsets.len(),
            });
        }
        self.offsets = Some(Arc::new(offsets));
        Ok(self)
    }

    /// The recurrence order `k`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The input length this signature is bound to.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bound length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The full row-major coefficient stream.
    pub fn coeffs(&self) -> &[T] {
        &self.coeffs
    }

    /// Element `i`'s feedback row (`k` coefficients, lag 1 first).
    pub fn row(&self, i: usize) -> &[T] {
        &self.coeffs[i * self.order..(i + 1) * self.order]
    }

    /// The affine offset stream, if one is attached.
    pub fn offsets(&self) -> Option<&[T]> {
        self.offsets.as_deref().map(Vec::as_slice)
    }

    /// When every row in `[start, end)` is identical, that row.
    pub fn constant_row_in(&self, start: usize, end: usize) -> Option<&[T]> {
        let first = self.row(start);
        for i in start + 1..end {
            if self.row(i) != first {
                return None;
            }
        }
        Some(first)
    }
}

/// The naive serial evaluator — the differential-testing oracle and the
/// benchmark baseline. Deliberately the obvious loop: per-element row
/// slicing, bounds-checked taps, no specialization.
///
/// # Errors
///
/// [`EngineError::LengthMismatch`] when `input.len()` differs from the
/// signature's bound length.
pub fn reference<T: Element>(
    sig: &VaryingSignature<T>,
    input: &[T],
) -> Result<Vec<T>, EngineError> {
    if input.len() != sig.len() {
        return Err(EngineError::LengthMismatch {
            expected: sig.len(),
            got: input.len(),
        });
    }
    let mut out = input.to_vec();
    for i in 0..out.len() {
        let mut acc = out[i];
        if let Some(d) = sig.offsets() {
            acc = acc.add(d[i]);
        }
        for (j, &a) in sig.row(i).iter().enumerate() {
            if i > j {
                acc = acc.add(a.mul(out[i - 1 - j]));
            }
        }
        out[i] = acc;
    }
    Ok(out)
}

/// An affine map `v ↦ M·v + b` on carry states — a chunk's action on the
/// incoming carry in the time-varying lowering.
///
/// Composition is associative and agrees with multiplying the homogeneous
/// `(k+1)×(k+1)` embeddings `[[M, b], [0, 1]]`; see
/// [`AffineMap::to_homogeneous`].
#[derive(Debug, Clone, PartialEq)]
pub struct AffineMap<T> {
    matrix: Matrix<T>,
    offset: Vec<T>,
}

impl<T: Element> AffineMap<T> {
    /// Builds the map `v ↦ matrix·v + offset`.
    ///
    /// # Panics
    ///
    /// Panics when the offset length differs from the matrix dimension.
    pub fn new(matrix: Matrix<T>, offset: Vec<T>) -> Self {
        assert_eq!(matrix.dim(), offset.len(), "dimension mismatch");
        AffineMap { matrix, offset }
    }

    /// The identity map of dimension `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn identity(k: usize) -> Self {
        AffineMap {
            matrix: Matrix::identity(k),
            offset: vec![T::zero(); k],
        }
    }

    /// The state dimension `k`.
    pub fn dim(&self) -> usize {
        self.matrix.dim()
    }

    /// The linear part.
    pub fn matrix(&self) -> &Matrix<T> {
        &self.matrix
    }

    /// The translation part.
    pub fn offset(&self) -> &[T] {
        &self.offset
    }

    /// Applies the map: `matrix·v + offset`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn apply(&self, v: &[T]) -> Vec<T> {
        let mut out = self.matrix.apply(v);
        for (o, &b) in out.iter_mut().zip(&self.offset) {
            *o = o.add(b);
        }
        out
    }

    /// Sequential composition: the map that applies `self` first, then
    /// `later` (`later ∘ self`): matrix `M₂M₁`, offset `M₂b₁ + b₂`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn then(&self, later: &AffineMap<T>) -> AffineMap<T> {
        let matrix = later.matrix.mul(&self.matrix);
        let mut offset = later.matrix.apply(&self.offset);
        for (o, &b) in offset.iter_mut().zip(&later.offset) {
            *o = o.add(b);
        }
        AffineMap { matrix, offset }
    }

    /// The `(k+1)×(k+1)` homogeneous embedding `[[M, b], [0, 1]]`:
    /// composing affine maps is multiplying these blocks, and applying
    /// one is multiplying against `(v, 1)`.
    pub fn to_homogeneous(&self) -> Matrix<T> {
        let k = self.dim();
        let h = k + 1;
        let mut data = vec![T::zero(); h * h];
        for i in 0..k {
            for j in 0..k {
                data[i * h + j] = self.matrix.get(i, j);
            }
            data[i * h + k] = self.offset[i];
        }
        data[k * h + k] = T::one();
        Matrix::from_parts(h, data)
    }
}

/// The state after running `chunk` from `prev`: the chunk's last
/// `min(k, len)` outputs (most recent first), back-filled from `prev` when
/// the chunk is shorter than the order.
pub fn advance_state<T: Element>(prev: &[T], chunk: &[T], k: usize) -> Vec<T> {
    let take = k.min(chunk.len());
    let mut state: Vec<T> = chunk.iter().rev().take(take).copied().collect();
    state.extend_from_slice(&prev[..k - take]);
    state
}

/// Solves the varying recurrence over `data` in place, continuing from
/// `state` (`state[0]` is the value just before `data[0]`, `k` entries;
/// zeros for a cold start). `start` is `data[0]`'s global index into the
/// signature.
fn solve_span<T: Element>(sig: &VaryingSignature<T>, start: usize, state: &[T], data: &mut [T]) {
    let k = sig.order();
    if k == 1 {
        let span = start..start + data.len();
        chain(
            &sig.coeffs()[span.clone()],
            sig.offsets().map(|d| &d[span]),
            state[0],
            data,
        );
        return;
    }
    let head = k.min(data.len());
    for i in 0..head {
        let gi = start + i;
        let mut acc = data[i];
        if let Some(d) = sig.offsets() {
            acc = acc.add(d[gi]);
        }
        for (j, &a) in sig.row(gi).iter().enumerate() {
            let v = if j < i { data[i - 1 - j] } else { state[j - i] };
            acc = acc.add(a.mul(v));
        }
        data[i] = acc;
    }
    for i in head..data.len() {
        let gi = start + i;
        let mut acc = data[i];
        if let Some(d) = sig.offsets() {
            acc = acc.add(d[gi]);
        }
        for (j, &a) in sig.row(gi).iter().enumerate() {
            acc = acc.add(a.mul(data[i - 1 - j]));
        }
        data[i] = acc;
    }
}

/// The order-1 fused scan: `y[i] = z[i] + a[i]·prev` over `data` from
/// `prev`, with `z = x + d` when offsets `d` are given. `gates` and
/// `offsets` cover exactly `data`'s elements.
fn chain<T: Element>(gates: &[T], offsets: Option<&[T]>, mut prev: T, data: &mut [T]) {
    match offsets {
        Some(d) => {
            for ((y, &a), &d) in data.iter_mut().zip(gates).zip(d) {
                prev = y.add(d).add(a.mul(prev));
                *y = prev;
            }
        }
        None => {
            for (y, &a) in data.iter_mut().zip(gates) {
                prev = y.add(a.mul(prev));
                *y = prev;
            }
        }
    }
}

/// The sub-block length of an `n`-element solve in `LANES` lanes: an
/// odd number of cache lines, so the sub-block starts fall in different
/// cache sets. (Starts a power of two apart alias to one set and
/// thrash.)
fn lane_block<T, const LANES: usize>(n: usize) -> usize {
    let line = (64 / std::mem::size_of::<T>()).max(1);
    let lines = (n / (LANES * line)).max(1);
    (lines - 1 + lines % 2) * line
}

/// One lockstep stretch over `steps`: every lane's chain advances one
/// element per step, `y = x (+ d) + a·s`, as [`chain`] does. Lane `j`
/// holds its outputs (inputs on entry) in `ys[j]`, its gates in `gs[j]`
/// and its offsets in `ds[j]`, and its running value in `s[j]`. With
/// `bad`, the stretch also proves its gates: bit `j` is set when lane
/// `j`'s window holds a gate outside `[-1, 1]`, NaN included.
fn lockstep<T: Element, const LANES: usize>(
    ys: &mut [&mut [T]; LANES],
    gs: &[&[T]; LANES],
    ds: Option<&[&[T]; LANES]>,
    s: &mut [T; LANES],
    steps: Range<usize>,
    bad: Option<&mut u32>,
) {
    // Equal-length windows, so the loops below need no bounds checks.
    let ys = ys.each_mut().map(|y| &mut y[steps.clone()]);
    let gs = gs.map(|g| &g[steps.clone()]);
    if let Some(bad) = bad {
        for (j, g) in gs.iter().enumerate() {
            *bad |= u32::from(!all_non_expansive(g, 1)) << j;
        }
    }
    let len = steps.len();
    // The running values stay in registers, not behind `s`.
    let mut st = *s;
    match ds {
        Some(ds) => {
            let ds = ds.map(|d| &d[steps.clone()]);
            for i in 0..len {
                for j in 0..LANES {
                    st[j] = ys[j][i].add(ds[j][i]).add(gs[j][i].mul(st[j]));
                    ys[j][i] = st[j];
                }
            }
        }
        None => {
            for i in 0..len {
                for j in 0..LANES {
                    st[j] = ys[j][i].add(gs[j][i].mul(st[j]));
                    ys[j][i] = st[j];
                }
            }
        }
    }
    *s = st;
}

/// The fix-up of one sub-block from its predecessor's last value `v`:
/// `v *= a[i]; y[i] += v`, with `truncate` only until `v` flushes to
/// zero. Truncation is sound only where the sub-block's every gate is
/// non-expansive: past a gate outside `[-1, 1]` a flushed value could
/// regrow, so such a sub-block's fix-up runs to its end.
fn fix_up<T: Element>(mut v: T, data: &mut [T], gates: &[T], truncate: bool) {
    for (y, &a) in data.iter_mut().zip(gates) {
        v = v.mul(a);
        if truncate && v.flush_denormal().is_zero() {
            break;
        }
        *y = y.add(v);
    }
}

/// What [`solve_lanes`] reports: whether the solve completed, the poll
/// slices it ran, and, when it proved its gates, one bit per sub-block
/// whose gates are not all in `[-1, 1]` (the elements past the body
/// count toward the last sub-block).
struct LaneSolve {
    completed: bool,
    slices: u64,
    bad: u32,
}

/// The lane-parallel order-1 solve of one chunk (module docs, "Fast
/// paths"), continuing from `seed`: `LANES` sub-blocks of
/// [`lane_block`] elements advance in lockstep from zero (the first from
/// `seed`), the elements past them continue the last sub-block's chain,
/// and each later sub-block is then fixed up, in order, from its
/// predecessor's last value. `gates` and `offsets` cover exactly
/// `data`'s elements.
///
/// With `prove`, the lockstep proves the gates it loads, one verdict per
/// sub-block ([`LaneSolve::bad`]): a sub-block's fix-up stops where it
/// flushes to zero only if its verdict holds, and otherwise runs to its
/// end. Without, every gate must be known non-expansive (its chunk's
/// plan work truncated it), and every fix-up stops where it flushes.
///
/// With `wide` (only at [`WIDE_LANES`] lanes, on `f32`, where the CPU
/// has AVX-512F) the lockstep and the fix-ups run on the vector kernels
/// of [`simd`], which give these loops' bits and verdicts; the vector
/// fix-ups run only when every verdict holds. Everything else is shared.
///
/// `keep_going` is polled after every [`SOLVE_SLICE`] elements of
/// lockstep work, and once more before the fix-ups when the chunk has a
/// slice left; reports whether the solve completed, and the slices it
/// ran (`⌈len / SOLVE_SLICE⌉` when it did). An interrupted solve leaves
/// no usable prefix and no verdicts.
fn solve_lanes<T: Element, const LANES: usize>(
    wide: bool,
    prove: bool,
    gates: &[T],
    offsets: Option<&[T]>,
    seed: T,
    data: &mut [T],
    keep_going: &mut dyn FnMut() -> bool,
) -> LaneSolve {
    let n = data.len();
    let b = lane_block::<T, LANES>(n);
    let body = LANES * b;
    let mut s = [T::zero(); LANES];
    s[0] = seed;
    let mut bad = 0u32;
    let mut slices = 0u64;
    let mut step = 0;
    let stopped = |slices| LaneSolve {
        completed: false,
        slices,
        bad: 0,
    };
    while step < b {
        if slices > 0 && !keep_going() {
            return stopped(slices);
        }
        let end = (step + SOLVE_SLICE / LANES).min(b);
        let body_data = &mut data[..body];
        let proof = prove.then_some(&mut bad);
        if !(wide && simd::lockstep_wide(body_data, gates, offsets, b, &mut s, step..end, proof)) {
            let mut blocks = body_data.chunks_exact_mut(b);
            let mut ys: [&mut [T]; LANES] =
                std::array::from_fn(|_| blocks.next().expect("LANES sub-blocks"));
            let gs: [&[T]; LANES] = std::array::from_fn(|j| &gates[j * b..(j + 1) * b]);
            let ds: Option<[&[T]; LANES]> =
                offsets.map(|d| std::array::from_fn(|j| &d[j * b..(j + 1) * b]));
            let proof = prove.then_some(&mut bad);
            lockstep(&mut ys, &gs, ds.as_ref(), &mut s, step..end, proof);
        }
        step = end;
        slices += 1;
    }
    // The tail and the fix-ups close the chunk's last slice. Fewer than
    // `2·LANES` cache lines lie past the sub-blocks, so at most one slice
    // is left.
    if slices < n.div_ceil(SOLVE_SLICE) as u64 {
        if !keep_going() {
            return stopped(slices);
        }
        slices += 1;
    }
    if prove && !all_non_expansive(&gates[body..], 1) {
        bad |= 1 << (LANES - 1);
    }
    chain(
        &gates[body..],
        offsets.map(|d| &d[body..]),
        s[LANES - 1],
        &mut data[body..],
    );
    if !(wide && bad == 0 && simd::fixups_wide(data, gates, b)) {
        for j in 1..LANES {
            let end = if j == LANES - 1 { n } else { (j + 1) * b };
            let v = data[j * b - 1];
            let truncate = bad >> j & 1 == 0;
            fix_up(v, &mut data[j * b..end], &gates[j * b..end], truncate);
        }
    }
    LaneSolve {
        completed: true,
        slices,
        bad,
    }
}

/// The lane-parallel order-1 solve of one chunk at `LANES` lanes
/// ([`VaryingPlan`]'s lane chunks; module docs, "Fast paths") without
/// the tier gate or the plan's lane rule — differential tests and
/// benches. Solves `y[i] = x[i] (+ d[i]) + a[i]·y[i-1]` over `data` in
/// place from `seed`, with `gates` the `a` and `offsets` the `d`. It
/// always proves its gates in the lockstep, as a fresh plan chunk does,
/// so it is sound for any gates: a sub-block holding a gate outside
/// `[-1, 1]` (NaN and the infinities included) runs its fix-up to its
/// end instead of stopping where it flushes. `keep_going` is polled as
/// [`VaryingPlan::solve_chunk`] polls a lane chunk.
///
/// With `avx512` the 16-lane lockstep and fix-ups run on AVX-512F;
/// without, the portable loops run, the lane solve's spec at any lane
/// count. `None`, touching nothing, when `avx512` is asked for and
/// `LANES` is not 16, `T` is not `f32` or the CPU lacks AVX-512F, when
/// `data` is shorter than [`MIN_LANE_CHUNK`] or than `LANES` cache
/// lines, or when `gates` or `offsets` do not cover exactly `data`.
pub fn solve_lanes_ungated<T: Element, const LANES: usize>(
    avx512: bool,
    gates: &[T],
    offsets: Option<&[T]>,
    seed: T,
    data: &mut [T],
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<SlicedSolve> {
    let n = data.len();
    let fits = LANES > 0 && n >= MIN_LANE_CHUNK && LANES * lane_block::<T, LANES>(n) <= n;
    let covered = gates.len() == n && offsets.is_none_or(|d| d.len() == n);
    let isa = !avx512 || (LANES == WIDE_LANES && simd::wide_lanes::<T>());
    if !(fits && covered && isa) {
        return None;
    }
    let out = solve_lanes::<T, LANES>(avx512, true, gates, offsets, seed, data, keep_going);
    Some(SlicedSolve {
        completed: out.completed,
        slices: out.slices,
    })
}

/// `Σ_j |a_j| ≤ 1`: the row cannot grow a state vector's largest entry.
/// False for a NaN or infinite coefficient.
fn non_expansive<T: Element>(row: &[T]) -> bool {
    row.iter().map(|a| a.to_f64().abs()).sum::<f64>() <= 1.0
}

/// [`non_expansive`] over every `k`-coefficient row of `rows`. The folds
/// are branch-free so the order-1 pass vectorizes. At order 1 a builtin
/// float is compared as IEEE bits, as the AVX-512F lockstep does: with
/// its sign cleared it is at most 1.0's bits exactly when `|a| ≤ 1`,
/// the infinities and NaN above them, so no gate is widened to `f64`.
fn all_non_expansive<T: Element>(rows: &[T], k: usize) -> bool {
    if k == 1 && T::IS_FLOAT && T::BLOCKABLE {
        let magnitude = !(1u64 << (8 * T::BYTES - 1));
        let one = T::one().key_bits();
        return rows
            .iter()
            .fold(true, |ok, a| ok & (a.key_bits() & magnitude <= one));
    }
    if k == 1 {
        return rows
            .iter()
            .fold(true, |ok, a| ok & (a.to_f64().abs() <= 1.0));
    }
    rows.chunks_exact(k)
        .fold(true, |ok, row| ok & non_expansive(row))
}

/// Whether every entry of `mtx` flushes to zero
/// ([`Element::flush_denormal`]): below `MIN_POSITIVE` for floats,
/// exactly zero for integers.
fn underflowed<T: Element>(mtx: &Matrix<T>) -> bool {
    let k = mtx.dim();
    (0..k * k).all(|e| mtx.get(e / k, e % k).flush_denormal().is_zero())
}

/// Chunk `[start, start + len)`'s transition matrix and how many of its
/// leading elements the correction reaches: see [`compose`], which
/// truncates where the rule applies (module docs).
fn chunk_transition<T: Element>(
    sig: &VaryingSignature<T>,
    start: usize,
    len: usize,
    constant: Option<&[T]>,
) -> (Matrix<T>, usize) {
    let k = sig.order();
    let truncatable = !T::IS_FLOAT
        || match constant {
            Some(row) => non_expansive(row),
            None => all_non_expansive(&sig.coeffs()[start * k..(start + len) * k], k),
        };
    if let Some(row) = constant {
        // A constant chunk's transition is a companion power, composed
        // for its decay point only when the power itself has underflowed.
        let power = Matrix::companion(row).pow(len as u64);
        if truncatable && underflowed(&power) {
            let (zero, d) = compose(sig, start, len, true);
            if d < len {
                return (zero, d);
            }
        }
        return (power, len);
    }
    compose(sig, start, len, truncatable)
}

/// The prefix decay point of order-1 `gates`: the first index where
/// their running product flushes to zero ([`Element::flush_denormal`]),
/// or `gates.len()` when it never does, with the product there. It reads
/// only the gates up to that point, and proves nothing about the rest.
fn decay_point<T: Element>(gates: &[T]) -> (usize, T) {
    let mut p = T::one();
    for (i, &a) in gates.iter().enumerate() {
        p = p.mul(a);
        if p.flush_denormal().is_zero() {
            return (i, p);
        }
    }
    (gates.len(), p)
}

/// Composes the transition of the `len` rows from `start`. With
/// `truncate`, composition stops at the first element `d` whose product
/// has [`underflowed`] and returns a zero matrix and `d`; otherwise it
/// returns the product and `len`.
fn compose<T: Element>(
    sig: &VaryingSignature<T>,
    start: usize,
    len: usize,
    truncate: bool,
) -> (Matrix<T>, usize) {
    let k = sig.order();
    let zero = || Matrix::from_parts(k, vec![T::zero(); k * k]);
    if k == 1 && truncate {
        // The scalar form of `companion_push`, equal to it bit for bit on
        // a truncatable chunk's rows (finite for floats) until the
        // product underflows.
        return match decay_point(&sig.coeffs()[start..start + len]) {
            (d, _) if d < len => (zero(), d),
            (_, p) => (Matrix::from_parts(1, vec![p]), len),
        };
    }
    let mut mtx = Matrix::identity(k);
    for i in 0..len {
        mtx.companion_push(sig.row(start + i));
        if truncate && underflowed(&mtx) {
            return (zero(), i);
        }
    }
    (mtx, len)
}

/// Outcome of [`VaryingPlan::solve_chunk`].
#[derive(Debug, Clone, PartialEq)]
pub struct VaryingSolve<T> {
    /// `false` when the poll callback stopped the solve early. The chain
    /// and the constant-row kernels leave a solved prefix and an
    /// untouched remainder (as [`crate::blocked::SlicedSolve`] does); the
    /// lane solve leaves no usable prefix. Only an aborted run ever sees
    /// the buffer.
    pub completed: bool,
    /// Poll slices processed.
    pub slices: u64,
    /// Which kernel class solved this chunk: a constant-row
    /// blocked/SIMD/scalar kernel, [`KernelKind::Lanes`] for the
    /// lane-parallel order-1 solve, or [`KernelKind::Scalar`] for the
    /// varying chain.
    pub kernel: KernelKind,
    /// The carry state after the chunk (meaningless when
    /// `completed == false`).
    pub state: Vec<T>,
}

/// Per-chunk geometry of a [`VaryingSignature`], with everything that
/// depends only on the coefficients kept out of the run's hot path: the
/// chunk transition matrices (the generalized carries), each chunk's
/// correction length (its decay point where the transition underflows)
/// and how its local solve runs: a constant-coefficient [`SolveKernel`]
/// for chunks whose rows are all equal, the lane-parallel order-1 solve
/// (module docs, "Fast paths"), or the chain.
///
/// [`build`](Self::build) only validates and classifies rows. Each
/// chunk's plan work — the proof that its rows are non-expansive, the
/// composition of its transition up to the decay point, the
/// lanes-or-chain choice — fills a per-chunk cell once, on first use:
/// in a run, on the worker that solves the chunk
/// ([`solve_chunk`](Self::solve_chunk)), just before the solve or, for a
/// lane chunk, inside it, where the lockstep proves the gates as it
/// loads them (module docs, "Truncated corrections"). Every accessor
/// fills the cells it needs, so chunks may be visited in any order, and
/// a reused plan does each chunk's work once.
///
/// Kernels are selected directly — a varying plan never consults (or
/// populates) the constant path's correction-plan cache.
#[derive(Debug)]
pub struct VaryingPlan<T> {
    sig: VaryingSignature<T>,
    chunk_size: usize,
    /// Whether an order-1 float chunk may solve in lanes: the kernel
    /// tier at build was [`KernelTier::Auto`].
    lanes: bool,
    /// Whether such a chunk may take [`WIDE_LANES`] lanes: it may solve
    /// in lanes, its elements are `f32` and the CPU has AVX-512F.
    wide: bool,
    kernels: Vec<SolveKernel<T>>,
    chunks: Vec<Chunk<T>>,
}

/// One chunk of a [`VaryingPlan`]: its rows' classification, made at
/// build, and its plan work, done on first use.
#[derive(Debug)]
struct Chunk<T> {
    rows: Rows,
    work: OnceLock<ChunkWork<T>>,
}

/// How a chunk's coefficient rows were classified.
#[derive(Debug, Clone, Copy)]
enum Rows {
    /// The rows differ.
    Varying,
    /// Every row equals the first; the index of the plan's constant-row
    /// kernel for it, when one was built.
    Constant(Option<u16>),
}

/// A chunk's plan work: its transition (zero when truncated), how many
/// of its leading elements the correction reaches, and its solver.
#[derive(Debug)]
struct ChunkWork<T> {
    matrix: Matrix<T>,
    correction_len: usize,
    solver: Solver,
}

/// How a chunk's local solve runs.
#[derive(Debug, Clone, Copy)]
enum Solver {
    /// The plan's constant-row kernel at this index.
    Kernel(u16),
    /// The dependent chain ([`solve_span`]).
    Chain,
    /// The lane-parallel order-1 solve ([`solve_lanes`]) at [`LANES`]
    /// lanes.
    Lanes,
    /// The same solve at [`WIDE_LANES`] lanes on AVX-512F.
    WideLanes,
}

impl<T: Element> VaryingPlan<T> {
    /// Builds the plan: validates the shape and classifies every chunk's
    /// rows (constant rows → kernel). Each chunk's transition and solver
    /// wait for the chunk's first use (type docs): there its transition
    /// is composed and truncated at its decay point where that is sound
    /// (module docs, "Truncated corrections"), and, under
    /// [`KernelTier::Auto`] as in effect here, a float order-1 chunk of
    /// at least [`MIN_LANE_CHUNK`] elements with no constant-row kernel,
    /// whose prefix decay point lies inside it, gets the lane-parallel
    /// solve, truncated or not; its lockstep proves the gates each
    /// fix-up's truncation needs. It runs 16 lanes where the element is
    /// `f32`, the CPU has AVX-512F and the prefix decay point is short
    /// against the 16-lane sub-block (at most half of it), and [`LANES`]
    /// otherwise.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidChunkSize`] when `chunk_size` is zero or
    /// smaller than the order; [`EngineError::InputTooLarge`] when the
    /// signature's bound length exceeds [`MAX_INPUT_LEN`].
    pub fn build(sig: VaryingSignature<T>, chunk_size: usize) -> Result<Self, EngineError> {
        if chunk_size == 0 || chunk_size < sig.order() {
            return Err(EngineError::InvalidChunkSize { chunk_size });
        }
        if sig.len() > MAX_INPUT_LEN {
            return Err(EngineError::InputTooLarge {
                len: sig.len(),
                max: MAX_INPUT_LEN,
            });
        }
        let k = sig.order();
        let n = sig.len();
        let m = chunk_size;
        let mut kernels: Vec<SolveKernel<T>> = Vec::new();
        let chunks = (0..n.div_ceil(m))
            .map(|c| {
                let start = c * m;
                let rows = match sig.constant_row_in(start, start + m.min(n - start)) {
                    None => Rows::Varying,
                    Some(row) if T::BLOCKABLE && k <= MAX_BLOCKED_ORDER => {
                        Rows::Constant(match kernels.iter().position(|kn| kn.feedback() == row) {
                            Some(i) => Some(i as u16),
                            None if kernels.len() < MAX_DISTINCT_KERNELS => {
                                kernels.push(SolveKernel::select(row));
                                Some((kernels.len() - 1) as u16)
                            }
                            None => None,
                        })
                    }
                    Some(_) => Rows::Constant(None),
                };
                Chunk {
                    rows,
                    work: OnceLock::new(),
                }
            })
            .collect();
        let lanes = T::IS_FLOAT && k == 1 && kernel::tier() == KernelTier::Auto;
        Ok(VaryingPlan {
            lanes,
            wide: lanes && simd::wide_lanes::<T>(),
            sig,
            chunk_size,
            kernels,
            chunks,
        })
    }

    /// Chunk `c`'s plan work, done eagerly by its first caller (type
    /// docs): the transition, truncated where sound ([`chunk_transition`]),
    /// and the solver. Later callers read the cell, so every run and
    /// every accessor sees the same matrix, decay point and solver. A
    /// fresh lane chunk's solve may fill the cell instead, with the same
    /// values ([`Self::solve_chunk`]).
    fn work(&self, c: usize) -> &ChunkWork<T> {
        let chunk = &self.chunks[c];
        chunk.work.get_or_init(|| {
            let start = c * self.chunk_size;
            let len = self.chunk_size.min(self.len() - start);
            let (constant, kernel) = match chunk.rows {
                Rows::Varying => (None, None),
                Rows::Constant(kernel) => (Some(self.sig.row(start)), kernel),
            };
            let (matrix, correction_len) = chunk_transition(&self.sig, start, len, constant);
            let solver = match kernel {
                Some(i) => Solver::Kernel(i),
                // A truncated chunk's correction stops at its decay point.
                None if correction_len < len => self.lane_solver(len, || correction_len),
                None => self.lane_solver(len, || {
                    decay_point(&self.sig.coeffs()[start..start + len]).0
                }),
            };
            ChunkWork {
                matrix,
                correction_len,
                solver,
            }
        })
    }

    /// The lane rule (module docs, "Fast paths") for a chunk of `len`
    /// elements with no constant-row kernel, whose prefix decay point
    /// ([`decay_point`]) `decay` returns: lanes when that point lies
    /// inside the chunk, 16 of them where the plan may take
    /// [`WIDE_LANES`] and the point is short against the 16-lane
    /// sub-block, else [`LANES`]; the chain otherwise. `decay` runs only
    /// where the plan and the length allow lanes, so only on order-1
    /// float rows.
    fn lane_solver(&self, len: usize, decay: impl FnOnce() -> usize) -> Solver {
        if !(self.lanes && len >= MIN_LANE_CHUNK) {
            return Solver::Chain;
        }
        match decay() {
            d if d >= len => Solver::Chain,
            d if self.wide && d * WIDE_DECAY_SHARE <= lane_block::<T, WIDE_LANES>(len) => {
                Solver::WideLanes
            }
            _ => Solver::Lanes,
        }
    }

    /// The prefix decay point of chunk `c`, `len` elements long, when its
    /// solve may do its plan work: its cell is still empty, its rows
    /// vary, and the lane rule puts it in lanes. Such a chunk proves its
    /// gates in the lockstep instead of a scan before it.
    fn fresh_lane_decay(&self, c: usize, len: usize) -> Option<usize> {
        let chunk = &self.chunks[c];
        let lanes = self.lanes && len >= MIN_LANE_CHUNK && matches!(chunk.rows, Rows::Varying);
        if !lanes || chunk.work.get().is_some() {
            return None;
        }
        let start = c * self.chunk_size;
        let d = decay_point(&self.sig.coeffs()[start..start + len]).0;
        (d < len).then_some(d)
    }

    /// The signature this plan lowers.
    pub fn signature(&self) -> &VaryingSignature<T> {
        &self.sig
    }

    /// The recurrence order `k`.
    pub fn order(&self) -> usize {
        self.sig.order()
    }

    /// The bound input length.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// Whether the bound length is zero.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// The chunk size the matrices are composed for.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Chunk `c`'s transition matrix `M_c` (zero for a chunk truncated at
    /// its decay point), composed on first use.
    pub fn matrix(&self, c: usize) -> &Matrix<T> {
        &self.work(c).matrix
    }

    /// How many leading elements of chunk `c` [`Self::correct_chunk`]
    /// corrects: the decay point `d_c` of a truncated chunk, else the
    /// chunk's length.
    pub fn correction_len(&self, c: usize) -> usize {
        self.work(c).correction_len
    }

    /// The kernel class chunk `c`'s local solve dispatches to: its
    /// constant-row kernel's, [`KernelKind::Lanes`] for the lane-parallel
    /// solve, or [`KernelKind::Scalar`] for the chain.
    pub fn chunk_kernel_kind(&self, c: usize) -> KernelKind {
        match self.work(c).solver {
            Solver::Kernel(i) => self.kernels[i as usize].kind(),
            Solver::Chain => KernelKind::Scalar,
            Solver::Lanes | Solver::WideLanes => KernelKind::Lanes,
        }
    }

    /// The kernel summary across chunks: the single class every chunk
    /// shares, or [`KernelKind::Mixed`] when chunks solve with different
    /// classes (constant-row kernels, the lanes, the chain). Does every
    /// chunk's plan work not yet done.
    pub fn aggregate_kernel_kind(&self) -> KernelKind {
        let mut agg: Option<KernelKind> = None;
        for c in 0..self.num_chunks() {
            let k = self.chunk_kernel_kind(c);
            agg = match agg {
                None => Some(k),
                Some(prev) if prev == k => Some(k),
                Some(_) => return KernelKind::Mixed,
            };
        }
        agg.unwrap_or(KernelKind::Scalar)
    }

    /// Chunk `c`'s action on the incoming carry state once its local
    /// state is known: `g ↦ M_c·g + local`.
    pub fn chunk_map(&self, c: usize, local: Vec<T>) -> AffineMap<T> {
        AffineMap::new(self.matrix(c).clone(), local)
    }

    /// Fixes chunk `c`'s incoming global state forward: `M_c·prev + local`
    /// (the in-place form of [`Self::chunk_map`]'s application).
    pub fn fixup_state(&self, c: usize, prev: &[T], local: &[T]) -> Vec<T> {
        let mut g = self.matrix(c).apply(prev);
        for (g, &l) in g.iter_mut().zip(local) {
            *g = g.add(l);
        }
        g
    }

    /// Solves chunk `c` in place, continuing from `state` (`None` for the
    /// decoupled zero-state local solve). Offsets are folded into the
    /// input on the fly; constant-row chunks dispatch to their selected
    /// kernel, and lane chunks to the lane-parallel solve. Past chunk 0, a
    /// truncated float chunk continues from `state` the way the look-back
    /// path does: the local solve, then [`Self::correct_chunk`], and the
    /// state [`Self::fixup_state`] derives (module docs, "Truncated
    /// corrections"). Time-sliced: `keep_going` is polled between
    /// [`SOLVE_SLICE`]-element slices so cancels land mid-chunk.
    ///
    /// The chunk's plan work comes first when no caller has done it yet
    /// (type docs), so the solve reads coefficients the plan work just
    /// brought into cache. A varying chunk the lane rule puts in lanes
    /// does it inside the solve instead: it reads only its prefix decay
    /// point before the lockstep, which proves the gates as it loads them
    /// (module docs, "Truncated corrections"). A chunk given a real
    /// history past chunk 0 always does the work first.
    pub fn solve_chunk(
        &self,
        c: usize,
        state: Option<&[T]>,
        data: &mut [T],
        keep_going: &mut dyn FnMut() -> bool,
    ) -> VaryingSolve<T> {
        let start = c * self.chunk_size;
        let len = data.len();
        if let Some(history) = state.filter(|_| c > 0 && T::IS_FLOAT) {
            if self.work(c).correction_len < len {
                let local = self.solve_chunk(c, None, data, keep_going);
                if !local.completed {
                    return local;
                }
                self.correct_chunk(c, history, data);
                return VaryingSolve {
                    state: self.fixup_state(c, history, &local.state),
                    ..local
                };
            }
        }
        // A fresh lane chunk proves its gates; so does one whose eager
        // work found a gate outside `[-1, 1]` and left it untruncated.
        let fresh = self.fresh_lane_decay(c, len);
        let (solver, prove) = match fresh {
            Some(d) => (self.lane_solver(len, || d), true),
            None => {
                let work = self.work(c);
                (work.solver, work.correction_len == len)
            }
        };
        let k = self.sig.order();
        let kernel = match solver {
            Solver::Kernel(i) => Some(&self.kernels[i as usize]),
            Solver::Chain => None,
            Solver::Lanes | Solver::WideLanes => {
                let span = start..start + len;
                let gates = &self.sig.coeffs()[span.clone()];
                let offsets = self.sig.offsets().map(|d| &d[span]);
                let seed = state.map_or(T::zero(), |s| s[0]);
                let out = match solver {
                    Solver::WideLanes => solve_lanes::<T, WIDE_LANES>(
                        true, prove, gates, offsets, seed, data, keep_going,
                    ),
                    _ => solve_lanes::<T, LANES>(
                        false, prove, gates, offsets, seed, data, keep_going,
                    ),
                };
                if let Some(d) = fresh.filter(|_| out.completed) {
                    if out.bad == 0 {
                        // Every gate is non-expansive: the eager work's
                        // truncation, without its scan.
                        self.chunks[c].work.get_or_init(|| ChunkWork {
                            matrix: Matrix::from_parts(1, vec![T::zero()]),
                            correction_len: d,
                            solver,
                        });
                    } else {
                        self.work(c);
                    }
                }
                return VaryingSolve {
                    completed: out.completed,
                    slices: out.slices,
                    kernel: KernelKind::Lanes,
                    state: vec![data[len - 1]],
                };
            }
        };
        let kind = kernel.map_or(KernelKind::Scalar, |kn| kn.kind());
        let mut st: Vec<T> = match state {
            Some(s) => s.to_vec(),
            None => vec![T::zero(); k],
        };
        let mut slices = 0u64;
        let mut off = 0;
        while off < len {
            if slices > 0 && !keep_going() {
                return VaryingSolve {
                    completed: false,
                    slices,
                    kernel: kind,
                    state: st,
                };
            }
            let end = (off + SOLVE_SLICE).min(len);
            let window = &mut data[off..end];
            match kernel {
                Some(kn) => {
                    if let Some(d) = self.sig.offsets() {
                        let d = &d[start + off..start + end];
                        for (w, &dd) in window.iter_mut().zip(d) {
                            *w = w.add(dd);
                        }
                    }
                    kn.solve_in_place_with_history(&st, window);
                }
                None => solve_span(&self.sig, start + off, &st, window),
            }
            st = advance_state(&st, window, k);
            off = end;
            slices += 1;
        }
        VaryingSolve {
            completed: true,
            slices,
            kernel: kind,
            state: st,
        }
    }

    /// Adds the boundary correction to a locally-solved chunk `c`: the
    /// forward companion pass `v ← C_i·v`, `y[i] += v[0]`, seeded with
    /// the predecessor's global state, over the chunk's first
    /// [`Self::correction_len`] elements (past a truncated chunk's decay
    /// point the correction has underflowed and is dropped, so a
    /// non-finite carry reaches only the first `d_c` elements). `O(k)`
    /// per element; the order-1 fast path is the scalar loop
    /// `v *= a[i]; y[i] += v`.
    pub fn correct_chunk(&self, c: usize, carry: &[T], data: &mut [T]) {
        let k = self.sig.order();
        let start = c * self.chunk_size;
        let reach = self.correction_len(c).min(data.len());
        let data = &mut data[..reach];
        if k == 1 {
            let a = self.sig.coeffs();
            let mut v = carry[0];
            for (i, y) in data.iter_mut().enumerate() {
                v = v.mul(a[start + i]);
                *y = y.add(v);
            }
            return;
        }
        let mut v = carry.to_vec();
        for (i, y) in data.iter_mut().enumerate() {
            let row = self.sig.row(start + i);
            let mut head = T::zero();
            for (j, &a) in row.iter().enumerate() {
                head = head.add(a.mul(v[j]));
            }
            for j in (1..k).rev() {
                v[j] = v[j - 1];
            }
            v[0] = head;
            *y = y.add(head);
        }
    }
}

/// The serial chunked executor for time-varying recurrences — the
/// single-thread counterpart of the parallel varying runner, wired
/// through the same [`EngineConfig`] the constant [`crate::Engine`]
/// takes.
///
/// `carry_propagation` selects between the fused sequential sweep
/// (chunks continue from real state; only truncated float chunks past
/// the first are corrected, module docs "Truncated corrections") and the
/// decoupled three-stage form (local solves, matrix carry chain,
/// per-chunk corrections) that the parallel strategies distribute.
/// `local_solve` and `flush_denormals` are inert here: the plan picks
/// each chunk's local solve itself, the lane-parallel one included
/// (module docs, "Fast paths"), and its truncation rule decides on its
/// own where underflowed transitions cut corrections short
/// (`flush_denormals: false` does not turn it off); the solves use the
/// coefficients exactly as given.
#[derive(Debug)]
pub struct VaryingEngine<T> {
    plan: Arc<VaryingPlan<T>>,
    config: EngineConfig,
}

impl<T: Element> VaryingEngine<T> {
    /// Creates an engine with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`VaryingPlan::build`].
    pub fn new(signature: VaryingSignature<T>) -> Result<Self, EngineError> {
        Self::with_config(signature, EngineConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`VaryingPlan::build`].
    pub fn with_config(
        signature: VaryingSignature<T>,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let plan = VaryingPlan::build(signature, config.chunk_size)?;
        Ok(VaryingEngine {
            plan: Arc::new(plan),
            config,
        })
    }

    /// The signature this engine is bound to.
    pub fn signature(&self) -> &VaryingSignature<T> {
        self.plan.signature()
    }

    /// The underlying chunk plan.
    pub fn plan(&self) -> &Arc<VaryingPlan<T>> {
        &self.plan
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the recurrence over `input`.
    ///
    /// # Errors
    ///
    /// See [`Self::run_in_place`].
    pub fn run(&self, input: &[T]) -> Result<Vec<T>, EngineError> {
        let mut data = input.to_vec();
        self.run_in_place(&mut data)?;
        Ok(data)
    }

    /// Runs the recurrence in place.
    ///
    /// # Errors
    ///
    /// [`EngineError::LengthMismatch`] when `data.len()` differs from the
    /// signature's bound length.
    pub fn run_in_place(&self, data: &mut [T]) -> Result<(), EngineError> {
        if data.len() != self.plan.len() {
            return Err(EngineError::LengthMismatch {
                expected: self.plan.len(),
                got: data.len(),
            });
        }
        if data.is_empty() {
            return Ok(());
        }
        let k = self.plan.order();
        let m = self.plan.chunk_size();
        let n = data.len();
        let num_chunks = self.plan.num_chunks();
        match self.config.carry_propagation {
            CarryPropagation::Sequential => {
                let mut state = vec![T::zero(); k];
                for c in 0..num_chunks {
                    let start = c * m;
                    let chunk = &mut data[start..(start + m).min(n)];
                    state = self
                        .plan
                        .solve_chunk(c, Some(&state), chunk, &mut || true)
                        .state;
                }
            }
            CarryPropagation::Decoupled => {
                let mut locals: Vec<Vec<T>> = Vec::with_capacity(num_chunks);
                for c in 0..num_chunks {
                    let start = c * m;
                    let chunk = &mut data[start..(start + m).min(n)];
                    locals.push(self.plan.solve_chunk(c, None, chunk, &mut || true).state);
                }
                let mut globals: Vec<Vec<T>> = Vec::with_capacity(num_chunks);
                globals.push(locals[0].clone());
                for c in 1..num_chunks {
                    globals.push(self.plan.fixup_state(c, &globals[c - 1], &locals[c]));
                }
                for c in 1..num_chunks {
                    let start = c * m;
                    let chunk = &mut data[start..(start + m).min(n)];
                    self.plan.correct_chunk(c, &globals[c - 1], chunk);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LocalSolve;
    use crate::serial;

    /// Deterministic pseudo-random stream without any RNG dependency.
    fn pattern(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    /// The order-1 proof on IEEE bits agrees with `|a| ≤ 1` on the edge
    /// values, alone and among clean gates.
    #[test]
    fn the_bit_proof_passes_exactly_the_non_expansive_gates() {
        fn check<T: Element>(pass: &[T], fail: &[T]) {
            let clean = [T::from_f64(0.5); 9];
            for (&a, ok) in pass
                .iter()
                .map(|a| (a, true))
                .chain(fail.iter().map(|a| (a, false)))
            {
                let mut gates = clean;
                gates[4] = a;
                assert_eq!(all_non_expansive(&[a], 1), ok, "{}", a.to_f64());
                assert_eq!(all_non_expansive(&gates, 1), ok, "{}", a.to_f64());
                assert_eq!(non_expansive(&[a]), ok, "{}", a.to_f64());
            }
        }
        check::<f32>(
            &[
                0.0,
                -0.0,
                1.0,
                -1.0,
                f32::MIN_POSITIVE / 2.0,
                -1e-45,
                0.999_999_94,
            ],
            &[
                f32::NAN,
                -f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                1.000_000_1,
                -2.0,
            ],
        );
        check::<f64>(
            &[
                0.0,
                -0.0,
                1.0,
                -1.0,
                f64::MIN_POSITIVE / 2.0,
                -5e-324,
                0.999_999_999_999_999_9,
            ],
            &[
                f64::NAN,
                -f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                1.000_000_000_000_000_2,
                -2.0,
            ],
        );
    }

    fn int_pattern(seed: u64, n: usize, span: i64) -> Vec<i64> {
        pattern(seed, n)
            .into_iter()
            .map(|v| (v * 2.0 * span as f64) as i64)
            .collect()
    }

    fn decoupled(chunk: usize) -> EngineConfig {
        EngineConfig {
            chunk_size: chunk,
            carry_propagation: CarryPropagation::Decoupled,
            local_solve: LocalSolve::Serial,
            flush_denormals: false,
        }
    }

    fn sequential(chunk: usize) -> EngineConfig {
        EngineConfig {
            carry_propagation: CarryPropagation::Sequential,
            ..decoupled(chunk)
        }
    }

    #[test]
    fn signature_shape_validation() {
        assert!(matches!(
            VaryingSignature::new(0, vec![1i64]),
            Err(EngineError::UnsupportedSignature { .. })
        ));
        assert!(matches!(
            VaryingSignature::new(2, vec![1i64, 2, 3]),
            Err(EngineError::UnsupportedSignature { .. })
        ));
        let sig = VaryingSignature::new(2, vec![1i64, 2, 3, 4]).unwrap();
        assert_eq!(sig.order(), 2);
        assert_eq!(sig.len(), 2);
        assert_eq!(sig.row(1), &[3, 4]);
        assert!(matches!(
            VaryingSignature::first_order(vec![1i64, 2])
                .unwrap()
                .with_offsets(vec![5]),
            Err(EngineError::LengthMismatch {
                expected: 2,
                got: 1
            })
        ));
    }

    #[test]
    fn signatures_take_their_streams_without_a_copy() {
        let gates = vec![0.5f32, 0.25, 0.75];
        let offsets = vec![1.0f32, 2.0, 3.0];
        let (g, d) = (gates.as_ptr(), offsets.as_ptr());
        let sig = VaryingSignature::first_order(gates)
            .unwrap()
            .with_offsets(offsets)
            .unwrap();
        assert_eq!(sig.coeffs(), &[0.5, 0.25, 0.75]);
        assert_eq!(sig.offsets(), Some(&[1.0f32, 2.0, 3.0][..]));
        assert!(std::ptr::eq(sig.coeffs().as_ptr(), g), "gates moved in");
        assert!(
            std::ptr::eq(sig.offsets().unwrap().as_ptr(), d),
            "offsets moved in"
        );
        let clone = sig.clone();
        assert!(std::ptr::eq(clone.coeffs().as_ptr(), g), "clones share");
    }

    #[test]
    fn reference_matches_hand_computed_affine_scan() {
        // y[i] = a[i]·y[i-1] + x[i] + d[i] by hand.
        let sig = VaryingSignature::first_order(vec![2i64, 3, 0, 1])
            .unwrap()
            .with_offsets(vec![10, 0, 0, 5])
            .unwrap();
        let out = reference(&sig, &[1, 1, 1, 1]).unwrap();
        // y0 = 1+10 = 11; y1 = 3·11 + 1 = 34; y2 = 0·34 + 1 = 1; y3 = 1·1 + 1 + 5 = 7.
        assert_eq!(out, vec![11, 34, 1, 7]);
    }

    #[test]
    fn constant_rows_match_the_constant_serial_path() {
        // A varying signature whose rows are all equal is the constant
        // recurrence; the reference must agree with serial::recursive.
        let n = 300;
        for fb in [&[2i64][..], &[1, 1][..], &[2, -1, 3][..]] {
            let coeffs: Vec<i64> = (0..n).flat_map(|_| fb.iter().copied()).collect();
            let sig = VaryingSignature::new(fb.len(), coeffs).unwrap();
            let input = int_pattern(9, n, 50);
            let expect = {
                let mut d = input.clone();
                serial::recursive_in_place(fb, &mut d);
                d
            };
            assert_eq!(reference(&sig, &input).unwrap(), expect);
        }
    }

    #[test]
    fn engines_match_reference_across_orders_and_chunks() {
        let n = 517; // deliberately ragged against every chunk size below
        for k in 1..=4usize {
            let coeffs = int_pattern(k as u64, n * k, 3);
            let offsets = int_pattern(40 + k as u64, n, 20);
            let sig = VaryingSignature::new(k, coeffs)
                .unwrap()
                .with_offsets(offsets)
                .unwrap();
            let input = int_pattern(7, n, 100);
            let expect = reference(&sig, &input).unwrap();
            for chunk in [k.max(1), 8, 64, 512, 1024] {
                if chunk < k {
                    continue;
                }
                for config in [sequential(chunk), decoupled(chunk)] {
                    let engine = VaryingEngine::with_config(sig.clone(), config).unwrap();
                    assert_eq!(
                        engine.run(&input).unwrap(),
                        expect,
                        "order {k}, chunk {chunk}"
                    );
                }
            }
        }
    }

    #[test]
    fn float_engines_match_reference_closely() {
        let n = 2048;
        let gates: Vec<f64> = pattern(3, n).iter().map(|v| 0.3 + 0.4 * v).collect();
        let sig = VaryingSignature::first_order(gates)
            .unwrap()
            .with_offsets(pattern(5, n))
            .unwrap();
        let input = pattern(11, n);
        let expect = reference(&sig, &input).unwrap();
        for config in [sequential(64), decoupled(64)] {
            let engine = VaryingEngine::with_config(sig.clone(), config).unwrap();
            let got = engine.run(&input).unwrap();
            for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
                assert!(
                    (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                    "index {i}: {g} vs {e}"
                );
            }
        }
    }

    #[test]
    fn affine_maps_compose_like_homogeneous_matrices() {
        let k = 3;
        let mats: Vec<AffineMap<i64>> = (0..4)
            .map(|s| {
                let m = Matrix::from_parts(k, int_pattern(s, k * k, 4));
                AffineMap::new(m, int_pattern(90 + s, k, 6))
            })
            .collect();
        for a in &mats {
            for b in &mats {
                let composed = a.then(b);
                assert_eq!(
                    composed.to_homogeneous(),
                    b.to_homogeneous().mul(&a.to_homogeneous())
                );
                // Application agrees with applying in sequence.
                let v = int_pattern(77, k, 9);
                assert_eq!(composed.apply(&v), b.apply(&a.apply(&v)));
                for c in &mats {
                    // Associativity — what makes the carry chain parallel.
                    assert_eq!(a.then(b).then(c), a.then(&b.then(c)));
                }
            }
        }
        // Identity behaves.
        let id = AffineMap::<i64>::identity(k);
        let v = int_pattern(1, k, 9);
        assert_eq!(id.apply(&v), v);
        assert_eq!(mats[0].then(&id), mats[0]);
        assert_eq!(id.then(&mats[0]), mats[0]);
    }

    #[test]
    fn chunk_map_reproduces_the_carry_chain() {
        // Composing the chunk maps and applying once equals walking the
        // chain chunk by chunk.
        let n = 300;
        let k = 2;
        let sig = VaryingSignature::new(k, int_pattern(2, n * k, 3)).unwrap();
        let plan = VaryingPlan::build(sig.clone(), 64).unwrap();
        let mut data = int_pattern(3, n, 40);
        let mut locals = Vec::new();
        for c in 0..plan.num_chunks() {
            let start = c * 64;
            let chunk = &mut data[start..(start + 64).min(n)];
            locals.push(plan.solve_chunk(c, None, chunk, &mut || true).state);
        }
        let mut chained = locals[0].clone();
        let mut composed = plan.chunk_map(0, locals[0].clone());
        for (c, local) in locals.iter().enumerate().skip(1) {
            chained = plan.fixup_state(c, &chained, local);
            composed = composed.then(&plan.chunk_map(c, local.clone()));
        }
        assert_eq!(chained, composed.apply(&vec![0i64; k]));
    }

    #[test]
    fn constant_chunks_get_kernels_varying_chunks_do_not() {
        let n = 256;
        let m = 64;
        // First two chunks constant (same row), third constant with a
        // different row, last genuinely varying.
        let mut gates = vec![0.5f64; 2 * m];
        gates.extend(vec![0.25f64; m]);
        gates.extend(pattern(8, m).iter().map(|v| 0.3 + 0.2 * v));
        let sig = VaryingSignature::first_order(gates).unwrap();
        let plan = VaryingPlan::build(sig, m).unwrap();
        assert_eq!(plan.num_chunks(), 4);
        assert_ne!(plan.chunk_kernel_kind(0), KernelKind::Unknown);
        assert_eq!(plan.chunk_kernel_kind(0), plan.chunk_kernel_kind(1));
        assert_eq!(plan.chunk_kernel_kind(3), KernelKind::Scalar);
        let _ = plan.aggregate_kernel_kind();
        // Differential: the kernel-dispatched plan still matches the
        // reference (constant chunks run the blocked/SIMD kernel).
        let input = pattern(9, n);
        let sig = plan.signature().clone();
        let expect = reference(&sig, &input).unwrap();
        let engine = VaryingEngine::with_config(sig, decoupled(m)).unwrap();
        let got = engine.run(&input).unwrap();
        for (i, (&g, &e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() <= 1e-9 * e.abs().max(1.0), "index {i}");
        }
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let sig = VaryingSignature::first_order(vec![1i64; 10]).unwrap();
        let engine = VaryingEngine::with_config(sig.clone(), sequential(4)).unwrap();
        assert!(matches!(
            engine.run(&[1i64; 9]),
            Err(EngineError::LengthMismatch {
                expected: 10,
                got: 9
            })
        ));
        assert!(matches!(
            reference(&sig, &[1i64; 11]),
            Err(EngineError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn invalid_chunk_sizes_are_rejected() {
        let sig = VaryingSignature::new(3, vec![1i64; 30]).unwrap();
        assert!(matches!(
            VaryingPlan::build(sig.clone(), 0),
            Err(EngineError::InvalidChunkSize { chunk_size: 0 })
        ));
        assert!(matches!(
            VaryingPlan::build(sig, 2),
            Err(EngineError::InvalidChunkSize { chunk_size: 2 })
        ));
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let sig = VaryingSignature::first_order(Vec::<i64>::new()).unwrap();
        let engine = VaryingEngine::with_config(sig, sequential(8)).unwrap();
        assert_eq!(engine.run(&[]).unwrap(), Vec::<i64>::new());
    }

    /// f32 gates in `[0.5, 0.99)`: the transition of a 1024-element
    /// chunk underflows within a few hundred elements.
    fn decaying_gates(n: usize) -> Vec<f32> {
        pattern(21, n)
            .iter()
            .map(|v| (0.745 + 0.49 * v) as f32)
            .collect()
    }

    /// The transition before truncation: the unflushed companion product.
    fn untruncated_transition<T: Element>(
        sig: &VaryingSignature<T>,
        start: usize,
        len: usize,
    ) -> Matrix<T> {
        let mut mtx = Matrix::identity(sig.order());
        for i in start..start + len {
            mtx.companion_push(sig.row(i));
        }
        mtx
    }

    /// The order-1 decoupled engine before truncation: local solves, the
    /// chain through untruncated transitions, full-length corrections.
    fn untruncated_decoupled(sig: &VaryingSignature<f32>, m: usize, input: &[f32]) -> Vec<f32> {
        let plan = VaryingPlan::build(sig.clone(), m).unwrap();
        let mut data = input.to_vec();
        let mut global = 0.0f32;
        for (c, chunk) in data.chunks_mut(m).enumerate() {
            let local = plan.solve_chunk(c, None, chunk, &mut || true).state[0];
            let carry = global;
            global = local;
            if c == 0 {
                continue;
            }
            let mut v = carry;
            for (y, &a) in chunk.iter_mut().zip(&sig.coeffs()[c * m..]) {
                v *= a;
                *y += v;
            }
            let mtx = untruncated_transition(sig, c * m, chunk.len());
            global = mtx.apply(&[carry])[0] + local;
        }
        data
    }

    fn same_bits(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
    }

    #[test]
    fn decaying_float_chunks_truncate_at_their_decay_point() {
        let m = 1024;
        let sig = VaryingSignature::first_order(decaying_gates(4 * m + 100)).unwrap();
        let plan = VaryingPlan::build(sig.clone(), m).unwrap();
        for c in 0..4 {
            let d = plan.correction_len(c);
            assert!(d > 0 && d < m, "chunk {c} decays at {d}");
            assert!(plan.matrix(c).is_zero(), "chunk {c}");
            // The product just before the decay point is still a normal
            // float, so composition stopped at the first underflow.
            let before = untruncated_transition(&sig, c * m, d).get(0, 0);
            assert!(before.abs() >= f32::MIN_POSITIVE, "chunk {c}: {before:e}");
        }
        // The 100-element tail never decays: it keeps its transition.
        assert_eq!(plan.correction_len(4), 100);
        assert_eq!(plan.matrix(4), &untruncated_transition(&sig, 4 * m, 100));
    }

    #[test]
    fn expansive_nan_and_infinite_rows_are_never_truncated() {
        let m = 1024;
        let n = 4 * m;
        let input: Vec<f32> = pattern(22, n).iter().map(|v| (1.0 + v) as f32).collect();
        // Past the last chunk's decay point, where truncation would cut
        // the row off.
        let at = 3 * m + 700;
        let clean =
            VaryingPlan::build(VaryingSignature::first_order(decaying_gates(n)).unwrap(), m)
                .unwrap();
        assert!(clean.correction_len(3) < 700);
        for hostile in [1.5f32, f32::NAN, f32::INFINITY] {
            let mut gates = decaying_gates(n);
            gates[at] = hostile;
            let sig = VaryingSignature::first_order(gates).unwrap();
            let plan = VaryingPlan::build(sig.clone(), m).unwrap();
            for c in 0..3 {
                assert!(plan.matrix(c).is_zero(), "{hostile}: chunk {c}");
            }
            assert_eq!(plan.correction_len(3), m, "{hostile}");
            let got = plan.matrix(3).get(0, 0);
            let want = untruncated_transition(&sig, 3 * m, m).get(0, 0);
            assert!(same_bits(&[got], &[want]), "{hostile}: {got:e} vs {want:e}");
            let engine = VaryingEngine::with_config(sig.clone(), decoupled(m)).unwrap();
            assert!(
                same_bits(
                    &engine.run(&input).unwrap(),
                    &untruncated_decoupled(&sig, m, &input)
                ),
                "{hostile}"
            );
        }
        // Order 2: one row with Σ|a| = 1.5 keeps its chunk untruncated.
        let mut coeffs: Vec<f32> = decaying_gates(2 * n).iter().map(|a| a / 2.0).collect();
        coeffs[2 * at..2 * at + 2].copy_from_slice(&[0.75, 0.75]);
        let sig = VaryingSignature::new(2, coeffs).unwrap();
        let plan = VaryingPlan::build(sig.clone(), m).unwrap();
        assert!(plan.correction_len(2) < m && plan.matrix(2).is_zero());
        assert_eq!(plan.correction_len(3), m);
        assert_eq!(plan.matrix(3), &untruncated_transition(&sig, 3 * m, m));
    }

    #[test]
    fn integer_chunks_truncate_exactly_at_a_zero_product() {
        let m = 64;
        let n = 4 * m + 10;
        let z = 2 * m + 37;
        let input = int_pattern(23, n, 50);
        for k in [1usize, 2] {
            // Odd coefficients: no product of them wraps to zero.
            let mut coeffs: Vec<i64> = int_pattern(24 + k as u64, n * k, 4)
                .iter()
                .map(|&a| a | 1)
                .collect();
            // k consecutive zero rows from z zero the order-k product.
            coeffs[z * k..(z + k) * k].fill(0);
            let sig = VaryingSignature::new(k, coeffs)
                .unwrap()
                .with_offsets(int_pattern(25, n, 9))
                .unwrap();
            let plan = VaryingPlan::build(sig.clone(), m).unwrap();
            for c in 0..plan.num_chunks() {
                let len = m.min(n - c * m);
                if c == 2 {
                    assert!(plan.matrix(c).is_zero(), "k={k}");
                    assert_eq!(plan.correction_len(c), z + k - 1 - c * m, "k={k}");
                } else {
                    assert_eq!(plan.correction_len(c), len, "k={k} chunk {c}");
                    assert_eq!(
                        plan.matrix(c),
                        &untruncated_transition(&sig, c * m, len),
                        "k={k} chunk {c}"
                    );
                }
            }
            let expect = reference(&sig, &input).unwrap();
            for config in [sequential(m), decoupled(m)] {
                let engine = VaryingEngine::with_config(sig.clone(), config).unwrap();
                assert_eq!(engine.run(&input).unwrap(), expect, "k={k}");
            }
        }
    }

    /// The bits of every entry of `mtx`.
    fn matrix_bits<T: Element>(mtx: &Matrix<T>) -> Vec<u64> {
        let k = mtx.dim();
        (0..k * k)
            .map(|e| mtx.get(e / k, e % k).key_bits())
            .collect()
    }

    /// Each chunk's plan work as the eager build did it, every chunk in
    /// chunk order before any solve: the transition's bits, the decay
    /// point and the kernel class, lanes where the prefix decay point
    /// lies inside a long enough chunk, whatever its later gates. The
    /// tier and the constant-row kernels are the ones `plan` selected at
    /// build, so a tier flip by a test running alongside cannot move the
    /// comparison.
    fn eager_work<T: Element>(plan: &VaryingPlan<T>) -> Vec<(Vec<u64>, usize, KernelKind)> {
        let sig = plan.signature();
        let (m, n) = (plan.chunk_size(), plan.len());
        (0..plan.num_chunks())
            .map(|c| {
                let start = c * m;
                let len = m.min(n - start);
                let constant = sig.constant_row_in(start, start + len);
                let (matrix, d) = chunk_transition(sig, start, len, constant);
                let decays = || decay_point(&sig.coeffs()[start..start + len]).0 < len;
                let kind = match plan.chunks[c].rows {
                    Rows::Constant(Some(i)) => plan.kernels[i as usize].kind(),
                    _ if plan.lanes && len >= MIN_LANE_CHUNK && decays() => KernelKind::Lanes,
                    _ => KernelKind::Scalar,
                };
                (matrix_bits(&matrix), d, kind)
            })
            .collect()
    }

    /// What the accessors report for chunk `c` of `plan`.
    fn lazy_work<T: Element>(plan: &VaryingPlan<T>, c: usize) -> (Vec<u64>, usize, KernelKind) {
        (
            matrix_bits(plan.matrix(c)),
            plan.correction_len(c),
            plan.chunk_kernel_kind(c),
        )
    }

    /// A chunk order that is neither forward nor reverse.
    fn shuffled(chunks: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..chunks).collect();
        let mut x = 0x9E37_79B9u64;
        for i in (1..chunks).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        order
    }

    /// On fresh plans whose chunks are first touched in reverse or
    /// shuffled order, by any accessor, a solve included, or from several
    /// threads at once, every chunk's matrix, decay point and kernel
    /// class equal what the eager build computed: for clean gates, and
    /// for one hostile gate (1.5, 1.0000001, NaN, ±infinity, -1.5) on a
    /// lane sub-block's first or last step, at a poll slice's boundary or
    /// past the sub-blocks, at both lane counts; at orders 1 and 2, on
    /// floats and integers.
    #[test]
    fn lazy_plan_work_matches_the_eager_build() {
        fn check<T: Element>(sig: &VaryingSignature<T>, m: usize, label: &str) {
            let expect = eager_work(&VaryingPlan::build(sig.clone(), m).unwrap());
            let chunks = expect.len();
            let orders = [
                (0..chunks).collect::<Vec<_>>(),
                (0..chunks).rev().collect(),
                shuffled(chunks),
            ];
            type Touch<T> = fn(&VaryingPlan<T>, usize);
            let touches: [Touch<T>; 5] = [
                |p, c| {
                    p.matrix(c);
                },
                |p, c| {
                    p.correction_len(c);
                },
                |p, c| {
                    p.chunk_kernel_kind(c);
                },
                |p, c| {
                    p.fixup_state(c, &vec![T::one(); p.order()], &vec![T::zero(); p.order()]);
                },
                |p, c| {
                    let start = c * p.chunk_size();
                    let len = p.chunk_size().min(p.len() - start);
                    let mut data = vec![T::one(); len];
                    p.solve_chunk(c, None, &mut data, &mut || true);
                },
            ];
            for order in &orders {
                for touch in touches {
                    let plan = VaryingPlan::build(sig.clone(), m).unwrap();
                    for &c in order {
                        touch(&plan, c);
                    }
                    for (c, want) in expect.iter().enumerate() {
                        assert_eq!(&lazy_work(&plan, c), want, "{label}: chunk {c}, {order:?}");
                    }
                }
            }
            let plan = VaryingPlan::build(sig.clone(), m).unwrap();
            std::thread::scope(|s| {
                for order in &orders {
                    let plan = &plan;
                    s.spawn(move || {
                        for &c in order {
                            plan.matrix(c);
                        }
                    });
                }
            });
            assert_eq!(plan.aggregate_kernel_kind(), {
                let fresh = VaryingPlan::build(sig.clone(), m).unwrap();
                fresh.aggregate_kernel_kind()
            });
            for (c, want) in expect.iter().enumerate() {
                assert_eq!(&lazy_work(&plan, c), want, "{label}: chunk {c}, threads");
            }
        }
        let hostiles = [
            1.5f32,
            1.000_000_1,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -1.5,
        ];
        // Four lanes at 2 Ki; 16 at 16 Ki where the CPU has AVX-512F.
        for m in [MIN_LANE_CHUNK, 1 << 14] {
            let n = 5 * m + 300;
            // Chunk 1 constant, chunk 3 hostile past its decay point.
            let clean = {
                let mut gates = decaying_gates(n);
                gates[m..2 * m].fill(0.75);
                gates
            };
            let clean_sig = VaryingSignature::first_order(clean.clone()).unwrap();
            check(&clean_sig, m, &format!("clean, m={m}"));
            let (lanes, b) = match VaryingPlan::build(clean_sig, m).unwrap().work(3).solver {
                Solver::WideLanes => (WIDE_LANES, lane_block::<f32, WIDE_LANES>(m)),
                _ => (LANES, lane_block::<f32, LANES>(m)),
            };
            let mut places = vec![2 * b, 3 * b - 1, lanes * b + 5];
            if SOLVE_SLICE / lanes < b {
                places.push(b + SOLVE_SLICE / lanes);
            }
            for at in places {
                for hostile in hostiles {
                    let mut gates = clean.clone();
                    gates[3 * m + at] = hostile;
                    let sig = VaryingSignature::first_order(gates).unwrap();
                    let label = format!("{hostile} at {at}, m={m}");
                    check(&sig, m, &label);
                    let plan = VaryingPlan::build(sig, m).unwrap();
                    assert_eq!(plan.correction_len(3), m, "{label}: never truncated");
                    let want = if plan.lanes {
                        KernelKind::Lanes
                    } else {
                        KernelKind::Scalar
                    };
                    assert_eq!(plan.chunk_kernel_kind(3), want, "{label}");
                }
            }
        }
        let (m, n) = (MIN_LANE_CHUNK, 5 * MIN_LANE_CHUNK + 300);
        for hostile in [[0.75f32, 0.75], [f32::NAN, 0.0]] {
            let mut coeffs: Vec<f32> = decaying_gates(2 * n).iter().map(|a| a / 2.0).collect();
            coeffs[2 * (3 * m + 1700)..2 * (3 * m + 1701)].copy_from_slice(&hostile);
            let sig = VaryingSignature::new(2, coeffs).unwrap();
            check(&sig, m, &format!("order 2, {hostile:?}"));
        }
        for k in [1usize, 2] {
            let (m, n) = (64, 4 * 64 + 10);
            let mut coeffs: Vec<i64> = int_pattern(24 + k as u64, n * k, 4)
                .iter()
                .map(|&a| a | 1)
                .collect();
            coeffs[(2 * m + 37) * k..(2 * m + 37 + k) * k].fill(0);
            coeffs[..m * k].fill(1);
            check(
                &VaryingSignature::new(k, coeffs).unwrap(),
                m,
                &format!("i64 k={k}"),
            );
        }
    }

    /// A decoupled pass whose local solves and corrections visit the
    /// chunks in forward, reverse or shuffled order, on a fresh plan each
    /// time (so the visiting order is also the order the chunks' plan
    /// work runs in), gives the same output and state bits; so does the
    /// sequential engine on a plan whose work ran in shuffled order.
    #[test]
    fn lazy_plan_work_gives_the_same_bits_in_any_chunk_order() {
        let m = MIN_LANE_CHUNK;
        let n = 5 * m + 300;
        let mut gates = decaying_gates(n);
        gates[m..2 * m].fill(0.75);
        gates[3 * m + 1700] = f32::NAN;
        let sig = VaryingSignature::first_order(gates)
            .unwrap()
            .with_offsets(pattern(31, n).iter().map(|&v| v as f32).collect())
            .unwrap();
        let input: Vec<f32> = pattern(32, n).iter().map(|&v| v as f32).collect();
        let chunks = n.div_ceil(m);
        let span = |c: usize| c * m..(c * m + m).min(n);
        let decoupled = |order: &[usize]| {
            let plan = VaryingPlan::build(sig.clone(), m).unwrap();
            let mut data = input.clone();
            let mut locals = vec![Vec::new(); chunks];
            for &c in order {
                locals[c] = plan
                    .solve_chunk(c, None, &mut data[span(c)], &mut || true)
                    .state;
            }
            let mut globals = vec![locals[0].clone()];
            for c in 1..chunks {
                globals.push(plan.fixup_state(c, &globals[c - 1], &locals[c]));
            }
            for &c in order.iter().filter(|&&c| c > 0) {
                plan.correct_chunk(c, &globals[c - 1], &mut data[span(c)]);
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            (bits(&data), bits(&globals.concat()))
        };
        let forward = decoupled(&(0..chunks).collect::<Vec<_>>());
        assert_eq!(decoupled(&(0..chunks).rev().collect::<Vec<_>>()), forward);
        assert_eq!(decoupled(&shuffled(chunks)), forward);

        let sequential = |touch: Option<Vec<usize>>| {
            let engine = VaryingEngine::with_config(sig.clone(), sequential(m)).unwrap();
            for c in touch.into_iter().flatten() {
                engine.plan().correction_len(c);
            }
            engine.run(&input).unwrap()
        };
        assert!(same_bits(
            &sequential(Some(shuffled(chunks))),
            &sequential(None)
        ));
    }

    /// f32 gates in `[lo, hi)`.
    fn gates_in(n: usize, lo: f64, hi: f64) -> Vec<f32> {
        pattern(41, n)
            .iter()
            .map(|v| (lo + (hi - lo) * (v + 0.5)) as f32)
            .collect()
    }

    /// The lane rule: under `auto`, a long `f32` chunk whose decay point
    /// is short against its 16-lane sub-block takes 16 lanes where the
    /// CPU has AVX-512F; a chunk decaying too slowly for that, a short
    /// chunk and an `f64` chunk take four; a forced tier keeps the
    /// chain. The plans take the tier as `build` would record it, so the
    /// process-wide override stays untouched.
    #[test]
    fn each_chunk_picks_its_lane_count_from_its_decay_point() {
        fn solver_of<T: Element>(sig: VaryingSignature<T>, m: usize, auto: bool) -> Solver {
            let mut plan = VaryingPlan::build(sig, m).unwrap();
            plan.lanes = auto;
            plan.wide = auto && simd::wide_lanes::<T>();
            assert_eq!(plan.chunk_kernel_kind(1) == KernelKind::Lanes, auto);
            plan.work(1).solver
        }
        let m = 1 << 16;
        let ledger = VaryingSignature::first_order(gates_in(2 * m, 0.5, 0.99)).unwrap();
        let slow = VaryingSignature::first_order(gates_in(2 * m, 0.99, 0.999)).unwrap();
        let short = VaryingSignature::first_order(gates_in(2 * 4096, 0.5, 0.99)).unwrap();
        let ledger64 = VaryingSignature::first_order(
            gates_in(2 * m, 0.5, 0.99)
                .iter()
                .map(|&a| f64::from(a))
                .collect(),
        )
        .unwrap();
        let wide = if simd::wide_lanes::<f32>() {
            Solver::WideLanes
        } else {
            Solver::Lanes
        };
        let cases = [
            ("ledger f32", solver_of(ledger.clone(), m, true), wide),
            ("[0.99, 0.999) f32", solver_of(slow, m, true), Solver::Lanes),
            ("4 Ki f32", solver_of(short, 4096, true), Solver::Lanes),
            ("ledger f64", solver_of(ledger64, m, true), Solver::Lanes),
            ("forced tier", solver_of(ledger, m, false), Solver::Chain),
        ];
        for (label, got, want) in cases {
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}");
        }
    }

    /// The lockstep's verdicts, one bit per lane: a gate outside
    /// `[-1, 1]` (1.5, 1.0000001, NaN, ±infinity, -1.5) inside the
    /// stretch sets its lane's bit, while ±1, a denormal and -0.0 pass,
    /// and a gate outside the stretch sets none, in the portable loops at
    /// 16 lanes. Where AVX-512F runs, its kernel gives the same verdicts,
    /// outputs and running values, on a stretch that ends in its scalar
    /// remainder (one not a whole number of 16-step groups, which the
    /// lane solve's sub-blocks and slices never hand it) as well as in
    /// its vector part.
    #[test]
    fn the_lockstep_proves_each_lane_and_the_wide_kernel_agrees() {
        let wide = simd::wide_lanes::<f32>();
        if !wide {
            eprintln!("the AVX-512F half skipped: this CPU has no AVX-512F");
        }
        let n = 1 << 14;
        let b = lane_block::<f32, WIDE_LANES>(n);
        let steps = 32..b - 7;
        let input: Vec<f32> = pattern(51, n).iter().map(|&v| v as f32).collect();
        let hostile = [
            1.5f32,
            1.000_000_1,
            f32::NAN,
            f32::INFINITY,
            -f32::INFINITY,
            -1.5,
        ];
        let border = [1.0f32, -1.0, 1e-40, -0.0];
        let places = [(5, 40), (5, b - 9), (11, b - 16), (15, b - 8), (7, 10)];
        for (gate, (lane, step)) in hostile
            .into_iter()
            .chain(border)
            .flat_map(|g| places.map(|p| (g, p)))
        {
            let ctx = format!("gate {gate:e} in lane {lane} at step {step}");
            let mut gates = decaying_gates(n);
            gates[lane * b + step] = gate;
            let mut want = input.clone();
            let (mut want_s, mut want_bad) = ([0.25f32; WIDE_LANES], 0u32);
            let mut blocks = want[..WIDE_LANES * b].chunks_exact_mut(b);
            let mut ys: [&mut [f32]; WIDE_LANES] = std::array::from_fn(|_| blocks.next().unwrap());
            let gs: [&[f32]; WIDE_LANES] = std::array::from_fn(|j| &gates[j * b..(j + 1) * b]);
            let proof = Some(&mut want_bad);
            lockstep(&mut ys, &gs, None, &mut want_s, steps.clone(), proof);
            let caught = gate.is_nan() || gate.abs() > 1.0;
            let flagged = if caught && steps.contains(&step) {
                1 << lane
            } else {
                0
            };
            assert_eq!(want_bad, flagged, "portable: {ctx}");
            if !wide {
                continue;
            }
            let mut got = input.clone();
            let (mut got_s, mut got_bad) = ([0.25f32; WIDE_LANES], 0u32);
            let body = &mut got[..WIDE_LANES * b];
            let proof = Some(&mut got_bad);
            assert!(simd::lockstep_wide(
                body,
                &gates,
                None,
                b,
                &mut got_s,
                steps.clone(),
                proof
            ));
            assert_eq!(got_bad, flagged, "AVX-512F: {ctx}");
            assert!(same_bits(&got, &want), "{ctx}");
            assert!(same_bits(&got_s, &want_s), "{ctx}");
        }
    }

    #[test]
    fn sliced_solve_reports_slices_and_stops_on_poll() {
        let n = SOLVE_SLICE * 2 + 100;
        let sig = VaryingSignature::first_order(vec![1i64; n]).unwrap();
        let plan = VaryingPlan::build(sig, n).unwrap();
        let mut data = vec![1i64; n];
        let full = plan.solve_chunk(0, None, &mut data, &mut || true);
        assert!(full.completed);
        assert_eq!(full.slices, 3);
        assert_eq!(full.state[0], n as i64); // prefix sum of ones
        let mut data = vec![1i64; n];
        let mut polls = 0;
        let stopped = plan.solve_chunk(0, None, &mut data, &mut || {
            polls += 1;
            polls < 2
        });
        assert!(!stopped.completed);
        assert_eq!(stopped.slices, 2);
    }
}
