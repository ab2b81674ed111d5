//! Explicit SIMD kernels with runtime ISA dispatch.
//!
//! The register-blocked kernels of [`crate::blocked`] break the
//! per-element dependency so a compiler *can* vectorize them — but a
//! stock `cargo build` targets the x86-64 baseline (SSE2) and leaves the
//! speedup on the table, and wide wrapping-integer multiplies never
//! autovectorized profitably at all. This module writes the hot loops
//! directly against `core::arch`, selected at runtime with
//! `is_x86_feature_detected!`, so a distributed binary gets the vector
//! kernels on whatever CPU it lands on:
//!
//! * **local solve** — the blocked triangular FIR plus `B×k`
//!   carry-factor application at a full [`BLOCK`] (= 16) elements per
//!   step (`f64`/`i64`: 4 vectors of 4 lanes, `f32`/`i32`: 2 vectors of
//!   8). The triangular part is the *transposed* convolution
//!   `y[i] = Σ t[j]·h[i−j]`: each input is broadcast once and
//!   multiply-added against shifted windows of a read-only zero-padded
//!   impulse table, so the hot loop has no staging copies and no
//!   store-to-load-forwarding hazards. The per-block carry fold is the
//!   only serial dependency, and its carries never leave the register
//!   file: the next block's broadcasts are lane permutes of the top
//!   accumulator, not a store + scalar reload.
//! * **map + solve** — the same kernel with the FIR map folded in, so a
//!   chunk is read and written once ([`map_solve_ungated`], and
//!   [`CorrectionPlan::map_solve_sliced`](crate::plan::CorrectionPlan::map_solve_sliced)
//!   under the tier gate). With taps `f` the block's outputs are
//!   `y[i] = Σ_m x[m]·g[i−m]` over the raw inputs `x`, with the combined
//!   table `g = f ⊛ h`, plus `p−1` cross-block tables that carry the
//!   previous block's last raw inputs into this block's first outputs.
//!   For one tap the combined table is the scaled impulse response and
//!   the inner loop is the plain solve's.
//! * **steady-state FIR map** — the `fir_in_place` top-of-chunk loop,
//!   vectorized in descending windows so every load still sees original
//!   input (the map of the forced tiers and of the cases the fused
//!   kernel does not cover).
//! * **correction apply** — the dense / truncated-tail
//!   `chunk[i] += list[i]·carry` folds from [`crate::plan`].
//! * **the varying lane solve at 16 lanes** — the lockstep and the
//!   fix-ups of [`crate::varying`]'s lane-parallel order-1 solve for
//!   `f32` on AVX-512F, one chain per lane of a 512-bit register: each
//!   step of 16 loads one 16-element row from each of the 16 sub-blocks,
//!   transposes the tile in registers (`unpacklo/hi_ps`,
//!   `unpacklo/hi_pd`, `shuffle_f32x4`), advances all 16 chains with one
//!   multiply and one add (no FMA), and transposes back. Where asked, it
//!   also proves the gates it loads: a running unsigned max of the
//!   transposed gate vectors' sign-cleared bits gives each sub-block a
//!   verdict on whether all its gates are in `[-1, 1]`. Its bits and
//!   verdicts are the portable loops' at 16 lanes
//!   ([`solve_lanes_ungated`](crate::varying::solve_lanes_ungated)
//!   reaches both).
//!
//! The passes that stream a chunk from memory prefetch a fixed distance
//! ahead of their reads, one hint per cache line: the local solve and
//! map + solve here, the add-only cascade
//! ([`CascadeKernel`](crate::prefix::CascadeKernel)) and the segmented
//! zero scan ([`all_zero`](crate::segmented::all_zero)). The correction
//! folds (over a chunk just solved, so in cache), the steady-state map
//! and the forced `scalar` / `blocked` tiers do not. A prefetch moves no
//! arithmetic, so the output bits are the same either way.
//!
//! Each builtin element type's solve, map and fold kernels have exactly
//! one vector ISA, its [`best_isa`]: AVX2+FMA for `f32`, `f64` and
//! `i32`, and AVX-512VL+DQ for `i64`, whose kernels need the native
//! 64-bit lane multiply (`_mm256_mullo_epi64`, `vpmullq`) that AVX2
//! lacks. The one exception is the `f32` lane kernel above, which runs
//! on AVX-512F alone: its 16 chains fill a 512-bit register, while the
//! constant `f32` kernels stay on AVX2. Integer kernels are **exact**
//! (wrapping lane arithmetic matches the scalar loops bit for bit).
//! Float solve, map and fold kernels contract multiply-adds with FMA,
//! so they differ from the scalar reference at the ULP level (same
//! class of reassociation the blocked kernels already accept); the lane
//! kernel does not, and matches its loops bit for bit. Without the ISA
//! — on other CPUs and non-x86 targets — the blocked and scalar kernels
//! serve.
//!
//! Which tier actually runs is governed by [`crate::kernel`]
//! (`PLR_KERNEL` env / programmatic override) through
//! [`SolveKernel::select`](crate::blocked::SolveKernel::select); the
//! `*_ungated` entry points here ignore the tier, so differential tests
//! and benches reach the vector kernels under any `PLR_KERNEL` setting.

use crate::blocked::{
    fir_in_place, BlockedKernel, SlicedSolve, BLOCK, MAX_BLOCKED_ORDER, SOLVE_SLICE,
};
use crate::element::Element;
use crate::kernel::{self, KernelTier};
use crate::serial;
use std::any::TypeId;

/// Maximum FIR tap count served by the vector map kernels (matches the
/// unrolled scalar specializations in [`crate::blocked::fir_in_place`]).
pub const MAX_FIR_TAPS: usize = 4;

/// Raw inputs a map + solve carries across a block boundary (`p − 1`).
const MAX_CROSS: usize = MAX_FIR_TAPS - 1;

/// How far ahead of its reads a streaming pass prefetches, in bytes
/// (chosen by a sweep of 1–16 KiB on the ledger's lowpass and psum2).
pub(crate) const PREFETCH_BYTES: usize = 4096;

/// The cache-line size the prefetch steps by.
pub(crate) const LINE_BYTES: usize = 64;

/// Asks for the lines [`PREFETCH_BYTES`] past the `bytes` bytes starting
/// at `at`, one prefetch per [`LINE_BYTES`]: the software prefetch of
/// the passes that stream a chunk from memory, so its loads are in
/// flight while the arithmetic on earlier lines runs. A hint only: the
/// address is formed with `wrapping_add` and may lie past the slice, or
/// past any allocation, and nothing is read. A no-op off x86-64.
#[inline(always)]
pub(crate) fn prefetch_ahead<T>(at: *const T, bytes: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let ahead = at.cast::<i8>().wrapping_add(PREFETCH_BYTES);
        for line in (0..bytes).step_by(LINE_BYTES) {
            // SAFETY: SSE is in the x86-64 baseline, and a prefetch does
            // not dereference its address or fault on an unmapped one.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(ahead.wrapping_add(line)) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (at, bytes);
}

/// The vector instruction set an explicit kernel runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Isa {
    /// x86-64 AVX2 + FMA 256-bit kernels: `f32`, `f64` and `i32`.
    Avx2,
    /// x86-64 AVX-512VL+DQ 256-bit kernels with the native 64-bit lane
    /// multiply (`vpmullq`): `i64`.
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(target_arch = "x86_64")]
fn have_avx512() -> bool {
    have_avx2()
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
}

#[cfg(target_arch = "x86_64")]
fn have_avx512f() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

#[cfg(not(target_arch = "x86_64"))]
fn have_avx2() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn have_avx512() -> bool {
    false
}

#[cfg(not(target_arch = "x86_64"))]
fn have_avx512f() -> bool {
    false
}

fn is<T: 'static, U: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<U>()
}

/// `true` when explicit kernels exist for this element type (`f32`,
/// `f64`, `i32`, `i64`). Exotic elements (e.g. the max-plus semiring)
/// stay on the scalar reference loops.
pub fn supported<T: Element>() -> bool {
    is::<T, f32>() || is::<T, f64>() || is::<T, i32>() || is::<T, i64>()
}

/// The one vector ISA `T`'s explicit kernels run on, `None` when this CPU
/// lacks it or `T` has no explicit kernels: [`Isa::Avx2`] for `f32`,
/// `f64` and `i32`, [`Isa::Avx512`] for `i64`. [`KernelTier::Auto`]
/// dispatch runs the explicit kernels exactly when this is `Some`.
///
/// `i64` needs AVX-512 because AVX2 has no 64-bit lane multiply: built
/// from 32-bit halves, at ~5 instructions per lane multiply, it measured
/// *below* the scalar chain on the transposed-convolution solve.
pub fn best_isa<T: Element>() -> Option<Isa> {
    if is::<T, i64>() {
        have_avx512().then_some(Isa::Avx512)
    } else if supported::<T>() {
        have_avx2().then_some(Isa::Avx2)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Slice reinterpretation: dispatch on the *concrete* element type
// without widening the `Element` trait (exotic elements never reach
// these paths). Each cast is an identity transmute guarded by TypeId.
// ---------------------------------------------------------------------

fn cast_mut<T: 'static, U: 'static>(data: &mut [T]) -> Option<&mut [U]> {
    // SAFETY: T and U are the same type (TypeId equality), so layout,
    // validity and lifetime are all the identity.
    is::<T, U>().then(|| unsafe { &mut *(data as *mut [T] as *mut [U]) })
}

fn cast_ref<T: 'static, U: 'static>(data: &[T]) -> Option<&[U]> {
    // SAFETY: as above.
    is::<T, U>().then(|| unsafe { &*(data as *const [T] as *const [U]) })
}

fn cast_array<T: 'static, U: 'static, const N: usize>(c: &mut [T; N]) -> Option<&mut [U; N]> {
    // SAFETY: as above.
    is::<T, U>().then(|| unsafe { &mut *(c as *mut [T; N]).cast() })
}

fn cast_block<T: 'static, U: 'static>(b: &[T; BLOCK]) -> Option<&[U; BLOCK]> {
    // SAFETY: as above.
    is::<T, U>().then(|| unsafe { &*(b as *const [T; BLOCK]).cast() })
}

fn cast_rows<T: 'static, U: 'static>(rows: &[[T; BLOCK]]) -> Option<&[[U; BLOCK]]> {
    // SAFETY: as above.
    is::<T, U>().then(|| unsafe { &*(rows as *const [[T; BLOCK]] as *const [[U; BLOCK]]) })
}

fn cast_val<T: Copy + 'static, U: Copy + 'static>(v: T) -> Option<U> {
    // SAFETY: as above; transmute_copy of a value to its own type.
    is::<T, U>().then(|| unsafe { std::mem::transmute_copy(&v) })
}

/// An explicit-SIMD local-solve kernel for one pure-feedback recurrence
/// of order `1..=`[`MAX_BLOCKED_ORDER`], bound to one [`Isa`].
///
/// The precomputed tables (impulse-response prefix, carry-factor rows)
/// are shared with the blocked formulation — the vector step size `B`
/// divides [`BLOCK`], and factor lists for shorter blocks are prefixes
/// of longer ones.
#[derive(Debug, Clone)]
pub struct SimdKernel<T> {
    inner: BlockedKernel<T>,
    isa: Isa,
}

impl<T: Element> SimdKernel<T> {
    /// Builds a kernel on `T`'s [`best_isa`]: the kernel
    /// [`KernelTier::Auto`] dispatch runs. `None` when the CPU lacks that
    /// ISA, the element type has no explicit kernels, or the order is
    /// outside `1..=`[`MAX_BLOCKED_ORDER`] (the caller then falls back to
    /// blocked/scalar selection).
    pub fn try_new(feedback: &[T]) -> Option<Self> {
        let isa = best_isa::<T>()?;
        Some(SimdKernel {
            inner: BlockedKernel::try_new(feedback)?,
            isa,
        })
    }

    /// The ISA this kernel executes on.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// The recurrence order `k`.
    pub fn order(&self) -> usize {
        self.inner.order()
    }

    /// The feedback vector this kernel solves.
    pub fn feedback(&self) -> &[T] {
        self.inner.feedback()
    }

    /// Solves `y[i] = t[i] + Σ b-j·y[i-j]` in place with zero history.
    pub fn solve_in_place(&self, data: &mut [T]) {
        self.solve_in_place_with_history(&[], data);
    }

    /// Solves in place continuing from explicit history (`history[0]` is
    /// the value just before `data[0]`), matching
    /// [`serial::recursive_in_place_with_history`].
    pub fn solve_in_place_with_history(&self, history: &[T], data: &mut [T]) {
        let k = self.order();
        let mut carries = carries_from(history, k);
        let done = self.vector_blocks(
            self.inner.impulse(),
            &[],
            &mut carries,
            &mut [T::zero(); MAX_CROSS],
            data,
        );
        let tail = &mut data[done..];
        if !tail.is_empty() {
            serial::recursive_in_place_with_history(self.feedback(), &carries[..k], tail);
        }
    }

    /// Runs the vector kernel over as many full `B`-blocks as fit, with
    /// `table` as the in-block convolution table and one `cross` row per
    /// raw input carried in from before each block (`raw`, most recent
    /// first; none for a plain solve). Updates `carries` (most recent
    /// output first) and `raw`, and returns the element count processed.
    fn vector_blocks(
        &self,
        table: &[T; BLOCK],
        cross: &[[T; BLOCK]],
        carries: &mut [T; MAX_BLOCKED_ORDER],
        raw: &mut [T; MAX_CROSS],
        data: &mut [T],
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        {
            let k = self.order();
            let rows = self.inner.factors();
            macro_rules! dispatch {
                ($u:ty, $kernel:ident) => {
                    if let (Some(d), Some(c), Some(r)) = (
                        cast_mut::<T, $u>(data),
                        cast_array::<T, $u, MAX_BLOCKED_ORDER>(carries),
                        cast_array::<T, $u, MAX_CROSS>(raw),
                    ) {
                        let t = cast_block(table).unwrap();
                        let (rows, x) = (cast_rows(rows).unwrap(), cast_rows(cross).unwrap());
                        // SAFETY: construction checked `best_isa`, which is
                        // the ISA this kernel is compiled for.
                        return unsafe {
                            match x.len() {
                                0 => x86::$kernel::<0>(t, rows, k, c, x, r, d),
                                1 => x86::$kernel::<1>(t, rows, k, c, x, r, d),
                                2 => x86::$kernel::<2>(t, rows, k, c, x, r, d),
                                _ => x86::$kernel::<3>(t, rows, k, c, x, r, d),
                            }
                        };
                    }
                };
            }
            dispatch!(f64, solve_f64_avx2);
            dispatch!(f32, solve_f32_avx2);
            dispatch!(i32, solve_i32_avx2);
            dispatch!(i64, solve_i64_avx512);
        }
        // Unreachable: kernels exist only for the four builtin types on
        // x86-64. Returning 0 leaves everything to the serial tail.
        let _ = (table, cross, carries, raw, data);
        0
    }
}

/// The first `k` history values (most recent first), zero-filled.
fn carries_from<T: Element>(history: &[T], k: usize) -> [T; MAX_BLOCKED_ORDER] {
    let mut carries = [T::zero(); MAX_BLOCKED_ORDER];
    for (c, &h) in carries.iter_mut().zip(history.iter().take(k)) {
        *c = h;
    }
    carries
}

/// The FIR map of `p ≤` [`MAX_FIR_TAPS`] taps fused into the explicit-SIMD
/// local solve: one read and one write per element instead of two of
/// each.
///
/// Inside a block the two-pass result `y[i] = Σ_j h[i−j]·u[j]`, with
/// `u[j] = Σ_q f[q]·x[j−q]`, regroups by raw input into
/// `y[i] = Σ_{m ≥ 0} g[i−m]·x[m] + Σ_{s=1}^{p−1} e_s[i]·x[−s]`, where
/// `g = f ⊛ h` is the combined table and `e_s[i] = Σ_{q ≥ s} f[q]·h[i+s−q]`
/// weighs the raw input `s` places before the block. The kernel keeps
/// those `p − 1` raw inputs across blocks (and slices), and takes them
/// from the chunk's boundary stash at its start. The rewrite is exact
/// for the wrapping integers; floats differ from the two passes by
/// reassociation and the table's rounding.
#[derive(Debug, Clone)]
pub(crate) struct MapSolveKernel<T> {
    solve: SimdKernel<T>,
    fir: Vec<T>,
    /// `g[d] = Σ_{q ≤ min(d, p−1)} f[q]·h[d−q]`.
    combined: [T; BLOCK],
    /// `cross[s−1] = e_s`, `s = 1..p`.
    cross: Vec<[T; BLOCK]>,
}

impl<T: Element> MapSolveKernel<T> {
    /// Builds the kernel on `T`'s [`best_isa`], whatever the tier; `None`
    /// when the tap count is outside `1..=`[`MAX_FIR_TAPS`] or
    /// [`SimdKernel::try_new`] declines the feedback.
    pub(crate) fn try_new(fir: &[T], feedback: &[T]) -> Option<Self> {
        let p = fir.len();
        if p == 0 || p > MAX_FIR_TAPS {
            return None;
        }
        let solve = SimdKernel::try_new(feedback)?;
        let h = solve.inner.impulse();
        let mut combined = [T::zero(); BLOCK];
        for (d, g) in combined.iter_mut().enumerate() {
            for (q, &f) in fir.iter().enumerate().take(d + 1) {
                *g = g.add(f.mul(h[d - q]));
            }
        }
        let cross = (1..p)
            .map(|s| {
                let mut e = [T::zero(); BLOCK];
                for (i, v) in e.iter_mut().enumerate() {
                    for (q, &f) in fir.iter().enumerate().take(i + s + 1).skip(s) {
                        *v = v.add(f.mul(h[i + s - q]));
                    }
                }
                e
            })
            .collect();
        Some(MapSolveKernel {
            solve,
            fir: fir.to_vec(),
            combined,
            cross,
        })
    }

    /// Maps and solves `data` in place from `history` (most recent output
    /// first), in [`SOLVE_SLICE`]-sized slices with `keep_going` polled
    /// before each slice after the first, like
    /// [`SolveKernel::solve_in_place_sliced`](crate::blocked::SolveKernel::solve_in_place_sliced).
    /// `prev_raw` holds the raw inputs just before `data`, most recent
    /// last; a shorter one (the head of the data) reads zeros beyond it.
    /// Each slice hands its carries and last raw inputs straight to the
    /// next, so the output does not depend on the slicing.
    pub(crate) fn map_solve_sliced(
        &self,
        prev_raw: &[T],
        history: &[T],
        data: &mut [T],
        keep_going: &mut dyn FnMut() -> bool,
    ) -> SlicedSolve {
        let p = self.fir.len();
        let k = self.solve.order();
        let mut carries = carries_from(history, k);
        // Most recent first, like the carries; `have` of them are real.
        let mut raw = [T::zero(); MAX_CROSS];
        let mut have = prev_raw.len().min(p - 1);
        for (r, &x) in raw.iter_mut().zip(prev_raw.iter().rev()).take(have) {
            *r = x;
        }
        let mut slices = 0u64;
        let mut rest = data;
        loop {
            let (slice, next) = rest.split_at_mut(rest.len().min(SOLVE_SLICE));
            let done = self.solve.vector_blocks(
                &self.combined,
                &self.cross,
                &mut carries,
                &mut raw,
                slice,
            );
            if done > 0 {
                have = p - 1;
            }
            // Only the last slice can end off a block boundary.
            let tail = &mut slice[done..];
            if !tail.is_empty() {
                let mut prev = [T::zero(); MAX_CROSS];
                for s in 0..have {
                    prev[have - 1 - s] = raw[s];
                }
                fir_in_place(&self.fir, &prev[..have], have, tail);
                serial::recursive_in_place_with_history(self.solve.feedback(), &carries[..k], tail);
            }
            slices += 1;
            rest = next;
            if rest.is_empty() {
                return SlicedSolve {
                    completed: true,
                    slices,
                };
            }
            if !keep_going() {
                return SlicedSolve {
                    completed: false,
                    slices,
                };
            }
        }
    }
}

/// The fused map + solve of [`CorrectionPlan::map_solve_sliced`] without
/// the tier gate — differential tests and benches. Maps `data` with the
/// taps `fir` (`prev_raw`: the raw inputs just before it, most recent
/// last) and solves the feedback from `history` (most recent output
/// first). `None`, touching nothing, when `T`'s [`best_isa`] is missing
/// or the taps or order are out of the kernel's range.
///
/// [`CorrectionPlan::map_solve_sliced`]: crate::plan::CorrectionPlan::map_solve_sliced
pub fn map_solve_ungated<T: Element>(
    fir: &[T],
    feedback: &[T],
    prev_raw: &[T],
    history: &[T],
    data: &mut [T],
    keep_going: &mut dyn FnMut() -> bool,
) -> Option<SlicedSolve> {
    MapSolveKernel::try_new(fir, feedback)
        .map(|kernel| kernel.map_solve_sliced(prev_raw, history, data, keep_going))
}

/// `true` when the effective kernel tier is `Auto`: forcing `scalar` or
/// `blocked` keeps the map and correction stages on their reference
/// loops, so the forced tier is a true baseline.
fn tier_allows() -> bool {
    kernel::tier() == KernelTier::Auto
}

/// Vectorizes the top of [`fir_in_place`]'s steady state on `T`'s
/// [`best_isa`]: processes the highest `⌊(len−head)/L⌋·L` elements in
/// descending vector windows and returns how many it handled (0 when the
/// tier, type, tap count or CPU rule it out). The caller finishes
/// `[head, len−returned)` with the scalar steady loop.
pub fn fir_steady_in_place<T: Element>(fir: &[T], chunk: &mut [T], head: usize) -> usize {
    if tier_allows() {
        fir_steady_ungated(fir, chunk, head)
    } else {
        0
    }
}

/// [`fir_steady_in_place`] without the tier gate — differential tests
/// and benches.
pub fn fir_steady_ungated<T: Element>(fir: &[T], chunk: &mut [T], head: usize) -> usize {
    let p = fir.len();
    if best_isa::<T>().is_none() || p == 0 || p > MAX_FIR_TAPS || chunk.len() <= head {
        return 0;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if let (Some(c), Some(f)) = (cast_mut::<T, f64>(chunk), cast_ref::<T, f64>(fir)) {
            // SAFETY: `best_isa` checked AVX2+FMA above.
            return unsafe { x86::fir_steady_f64_avx2(f, c, head) };
        }
        if let (Some(c), Some(f)) = (cast_mut::<T, f32>(chunk), cast_ref::<T, f32>(fir)) {
            // SAFETY: as above.
            return unsafe { x86::fir_steady_f32_avx2(f, c, head) };
        }
        if let (Some(c), Some(f)) = (cast_mut::<T, i32>(chunk), cast_ref::<T, i32>(fir)) {
            // SAFETY: as above.
            return unsafe { x86::fir_steady_i32_avx2(f, c, head) };
        }
        if let (Some(c), Some(f)) = (cast_mut::<T, i64>(chunk), cast_ref::<T, i64>(fir)) {
            // SAFETY: `best_isa` checked AVX-512VL+DQ above.
            return unsafe { x86::fir_steady_i64_avx512(f, c, head) };
        }
    }
    0
}

/// Correction-apply fold `dst[i] += list[i]·carry` over
/// `min(dst.len(), list.len())` elements on `T`'s [`best_isa`].
/// Returns `false` (touching nothing) when the tier, element type or CPU
/// rules the vector form out — the caller then runs its scalar fold.
pub fn axpy_in_place<T: Element>(dst: &mut [T], list: &[T], carry: T) -> bool {
    tier_allows() && axpy_ungated(dst, list, carry)
}

/// [`axpy_in_place`] without the tier gate — differential tests and
/// benches.
pub fn axpy_ungated<T: Element>(dst: &mut [T], list: &[T], carry: T) -> bool {
    if best_isa::<T>().is_none() {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let done = if let (Some(d), Some(l), Some(c)) = (
            cast_mut::<T, f64>(dst),
            cast_ref::<T, f64>(list),
            cast_val::<T, f64>(carry),
        ) {
            // SAFETY: `best_isa` checked AVX2+FMA above.
            Some(unsafe { x86::axpy_f64_avx2(d, l, c) })
        } else if let (Some(d), Some(l), Some(c)) = (
            cast_mut::<T, f32>(dst),
            cast_ref::<T, f32>(list),
            cast_val::<T, f32>(carry),
        ) {
            // SAFETY: as above.
            Some(unsafe { x86::axpy_f32_avx2(d, l, c) })
        } else if let (Some(d), Some(l), Some(c)) = (
            cast_mut::<T, i32>(dst),
            cast_ref::<T, i32>(list),
            cast_val::<T, i32>(carry),
        ) {
            // SAFETY: as above.
            Some(unsafe { x86::axpy_i32_avx2(d, l, c) })
        } else if let (Some(d), Some(l), Some(c)) = (
            cast_mut::<T, i64>(dst),
            cast_ref::<T, i64>(list),
            cast_val::<T, i64>(carry),
        ) {
            // SAFETY: `best_isa` checked AVX-512VL+DQ above.
            Some(unsafe { x86::axpy_i64_avx512(d, l, c) })
        } else {
            None
        };
        if let Some(done) = done {
            // Scalar remainder above the vector prefix.
            for i in done..dst.len().min(list.len()) {
                dst[i] = dst[i].add(list[i].mul(carry));
            }
            return true;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (dst, list, carry);
    false
}

/// How many chains the wide lane kernel advances at once: the `f32`
/// lanes of one AVX-512 register.
pub(crate) const WIDE_LANES: usize = 16;

/// Whether the wide lane kernel runs here: `T` is `f32` and the CPU has
/// AVX-512F. Unlike the solve kernels this needs no AVX2, so it is not
/// `T`'s [`best_isa`].
pub(crate) fn wide_lanes<T: Element>() -> bool {
    is::<T, f32>() && have_avx512f()
}

/// The lockstep of the varying lane solve
/// ([`crate::varying`], "Fast paths") at [`WIDE_LANES`] lanes on
/// AVX-512F. `body` holds the lanes' sub-blocks of `b` elements each,
/// lane `j`'s at `body[j·b..(j+1)·b]`, with its gates and offsets at the
/// same indices of `gates` and `offsets`; `s[j]` is lane `j`'s running
/// value. Every lane's chain advances over `steps` as the scalar
/// lockstep does, `y = (x + d) + a·s`, one multiply and one add with no
/// FMA, so the bits are the scalar lockstep's. With `bad`, the kernel
/// also proves the gates it loads, as the scalar lockstep does: bit `j`
/// is set when lane `j`'s window holds a gate outside `[-1, 1]` or a
/// NaN. Returns `false`, touching nothing, where [`wide_lanes`] is false
/// or the shapes disagree.
pub(crate) fn lockstep_wide<T: Element>(
    body: &mut [T],
    gates: &[T],
    offsets: Option<&[T]>,
    b: usize,
    s: &mut [T],
    steps: std::ops::Range<usize>,
    bad: Option<&mut u32>,
) -> bool {
    let span = WIDE_LANES * b;
    if !wide_lanes::<T>()
        || steps.end > b
        || steps.start > steps.end
        || body.len() < span
        || gates.len() < span
        || offsets.is_some_and(|d| d.len() < span)
    {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if let (Some(y), Some(g), Some(s)) = (
            cast_mut::<T, f32>(body),
            cast_ref::<T, f32>(gates),
            cast_mut::<T, f32>(s).and_then(|s| <&mut [f32; WIDE_LANES]>::try_from(s).ok()),
        ) {
            let d = offsets.map(|d| cast_ref::<T, f32>(d).expect("offsets are gates' type"));
            // SAFETY: `wide_lanes` checked AVX-512F, and every lane's
            // window `j·b + steps` lies inside the `16·b` elements
            // checked above.
            unsafe {
                match bad {
                    Some(bad) => x86::lockstep_f32_avx512::<true>(y, g, d, b, s, steps, bad),
                    None => x86::lockstep_f32_avx512::<false>(y, g, d, b, s, steps, &mut 0),
                }
            };
            return true;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (body, gates, offsets, s, steps, bad);
    false
}

/// The fix-ups of a [`WIDE_LANES`]-lane solve on AVX-512F, bit-identical
/// to running them one sub-block after another. `data` is the whole
/// chunk: the lanes' sub-blocks of `b` elements each, solved from zero,
/// then the elements past them, which continue the last lane's chain.
/// Each fix-up `v *= a[i]; y[i] += v` starts from its predecessor's last
/// value and stops where `v` flushes to zero; the last lane's runs on to
/// the chunk's end. Every gate must be in `[-1, 1]`: the lane solve
/// calls this only when every sub-block's verdict holds.
///
/// The in-order rule seeds fix-up `j` with sub-block `j − 1`'s value
/// after that sub-block's own fix-up, which moved it only if the fix-up
/// ran to the sub-block's end. So a first pass, over the gates alone,
/// advances all fifteen fix-ups from the lockstep values at once and
/// finds where each flushes. If any but the last fails to flush inside
/// its own sub-block, it returns `false` having written nothing, and the
/// caller runs the fix-ups in order. Otherwise every seed was final, and
/// a second pass recomputes the same products and adds each where its
/// fix-up is still live. Returns `false` too, touching nothing, where
/// [`wide_lanes`] is false or the shapes disagree.
pub(crate) fn fixups_wide<T: Element>(data: &mut [T], gates: &[T], b: usize) -> bool {
    if !wide_lanes::<T>()
        || b == 0
        || !b.is_multiple_of(WIDE_LANES)
        || data.len() < WIDE_LANES * b
        || gates.len() != data.len()
    {
        return false;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if let (Some(y), Some(g)) = (cast_mut::<T, f32>(data), cast_ref::<T, f32>(gates)) {
            // SAFETY: `wide_lanes` checked AVX-512F; the sub-blocks are
            // whole 16-step groups inside `data`, checked above.
            return unsafe { x86::fixups_f32_avx512(y, g, b) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, gates);
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `core::arch` kernel bodies. Every function is gated by a
    //! `#[target_feature]` attribute and must only be reached through
    //! the runtime-detection guards in the parent module.
    #![allow(unsafe_op_in_unsafe_fn)]

    use super::{prefetch_ahead, BLOCK, WIDE_LANES};
    use core::arch::x86_64::*;

    /// Transposes the 16×16 `f32` tile held as 16 row registers in place:
    /// afterwards `r[k]` holds what was column `k`. Four rounds of
    /// two-source shuffles: `unpacklo/hi_ps` interleaves row pairs,
    /// `unpacklo/hi_pd` completes 4×4 transposes inside each 128-bit
    /// lane, and two rounds of `shuffle_f32x4` move the 128-bit blocks.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX-512F.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose16(r: &mut [__m512; 16]) {
        let pd = _mm512_castps_pd;
        let ps = _mm512_castpd_ps;
        let mut t = [_mm512_setzero_ps(); 16];
        for i in 0..8 {
            t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
            t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
        }
        for i in 0..4 {
            let (a, b) = (pd(t[4 * i]), pd(t[4 * i + 1]));
            let (c, d) = (pd(t[4 * i + 2]), pd(t[4 * i + 3]));
            r[4 * i] = ps(_mm512_unpacklo_pd(a, c));
            r[4 * i + 1] = ps(_mm512_unpackhi_pd(a, c));
            r[4 * i + 2] = ps(_mm512_unpacklo_pd(b, d));
            r[4 * i + 3] = ps(_mm512_unpackhi_pd(b, d));
        }
        for i in 0..2 {
            for q in 0..4 {
                let (a, b) = (r[8 * i + q], r[8 * i + q + 4]);
                t[8 * i + q] = _mm512_shuffle_f32x4::<0x88>(a, b);
                t[8 * i + q + 4] = _mm512_shuffle_f32x4::<0xdd>(a, b);
            }
        }
        for q in 0..8 {
            r[q] = _mm512_shuffle_f32x4::<0x88>(t[q], t[q + 8]);
            r[q + 8] = _mm512_shuffle_f32x4::<0xdd>(t[q], t[q + 8]);
        }
    }

    /// Loads the 16-element row at step `t` of each of the 16 lanes
    /// (`b` apart) and transposes them: `r[i]` then holds step `t + i`
    /// of every lane.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX-512F, and `p + j·b + t + 15` must be in
    /// bounds of `p`'s allocation for every `j < 16`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load_steps(p: *const f32, b: usize, t: usize) -> [__m512; 16] {
        let mut r = [_mm512_setzero_ps(); 16];
        for (j, row) in r.iter_mut().enumerate() {
            *row = _mm512_loadu_ps(p.add(j * b + t));
        }
        transpose16(&mut r);
        r
    }

    /// See [`super::lockstep_wide`]: 16 steps at a time, each lane's
    /// rows transposed in, advanced with one multiply and one add per
    /// step, transposed back. A range that is not a multiple of 16 long
    /// ends in the scalar lockstep's loop. With `PROVE`, a running
    /// unsigned max of the transposed gate vectors' sign-cleared bits
    /// (lane `j` is sub-block `j`; above `1.0`'s bits means a gate
    /// outside `[-1, 1]` or a NaN) sets `bad`'s bits, and the scalar
    /// remainder checks its own gates.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX-512F; `steps.start <= steps.end <= b`, and
    /// `body`, `gates` and `offsets` hold at least `16·b` elements.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn lockstep_f32_avx512<const PROVE: bool>(
        body: &mut [f32],
        gates: &[f32],
        offsets: Option<&[f32]>,
        b: usize,
        s: &mut [f32; WIDE_LANES],
        steps: std::ops::Range<usize>,
        bad: &mut u32,
    ) {
        const L: usize = WIDE_LANES;
        let y = body.as_mut_ptr();
        let mut st = _mm512_loadu_ps(s.as_ptr());
        let magnitude = _mm512_set1_epi32(i32::MAX);
        let mut top = _mm512_setzero_si512();
        let mut t = steps.start;
        while t + L <= steps.end {
            let g = load_steps(gates.as_ptr(), b, t);
            if PROVE {
                for gi in &g {
                    let bits = _mm512_and_si512(_mm512_castps_si512(*gi), magnitude);
                    top = _mm512_max_epu32(top, bits);
                }
            }
            let mut z = [_mm512_setzero_ps(); L];
            for (j, row) in z.iter_mut().enumerate() {
                *row = _mm512_loadu_ps(y.add(j * b + t));
                if let Some(d) = offsets {
                    *row = _mm512_add_ps(*row, _mm512_loadu_ps(d.as_ptr().add(j * b + t)));
                }
            }
            transpose16(&mut z);
            for i in 0..L {
                st = _mm512_add_ps(z[i], _mm512_mul_ps(g[i], st));
                z[i] = st;
            }
            transpose16(&mut z);
            for (j, row) in z.iter().enumerate() {
                _mm512_storeu_ps(y.add(j * b + t), *row);
            }
            t += L;
        }
        _mm512_storeu_ps(s.as_mut_ptr(), st);
        if PROVE {
            let one = _mm512_set1_epi32(1f32.to_bits() as i32);
            *bad |= u32::from(_mm512_cmpgt_epu32_mask(top, one));
        }
        for i in t..steps.end {
            for (j, sj) in s.iter_mut().enumerate() {
                let at = j * b + i;
                let x = match offsets {
                    Some(d) => body[at] + d[at],
                    None => body[at],
                };
                if PROVE && gates[at].to_bits() & i32::MAX as u32 > 1f32.to_bits() {
                    *bad |= 1 << j;
                }
                *sj = x + gates[at] * *sj;
                body[at] = *sj;
            }
        }
    }

    /// See [`super::fixups_wide`]. Lane `j` of the vectors is sub-block
    /// `j`'s fix-up; lane 0 has none (its seed is zero, which flushes at
    /// once).
    ///
    /// # Safety
    ///
    /// The CPU must have AVX-512F; `b` is a positive multiple of 16, and
    /// `gates` is as long as `data`, which holds at least `16·b`
    /// elements.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fixups_f32_avx512(data: &mut [f32], gates: &[f32], b: usize) -> bool {
        const L: usize = WIDE_LANES;
        let mut seeds = [0f32; L];
        for (j, seed) in seeds.iter_mut().enumerate().skip(1) {
            *seed = data[j * b - 1];
        }
        let seed = _mm512_loadu_ps(seeds.as_ptr());
        let tiny = _mm512_set1_ps(f32::MIN_POSITIVE);
        // Pass 1, gates only: the step at which each fix-up flushes, `b`
        // for one still live at its sub-block's end. A flushed lane is
        // set to zero, which keeps the later multiplies off denormals
        // (each costs a microcode assist); `min` keeps its first flush.
        let never = _mm512_set1_epi32(b as i32);
        let mut stop = never;
        let mut v = seed;
        let mut t = 0;
        while t < b && _mm512_cmplt_epi32_mask(stop, never) | 1 != !0 {
            let g = load_steps(gates.as_ptr(), b, t);
            for (i, gi) in g.iter().enumerate() {
                v = _mm512_mul_ps(v, *gi);
                let flushed = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(_mm512_abs_ps(v), tiny);
                stop =
                    _mm512_mask_min_epi32(stop, flushed, stop, _mm512_set1_epi32((t + i) as i32));
                v = _mm512_maskz_mov_ps(!flushed, v);
            }
            t += L;
        }
        let mut stops = [0i32; L];
        _mm512_storeu_si512(stops.as_mut_ptr().cast(), stop);
        let stops = stops.map(|f| f as usize);
        if stops[1..L - 1].iter().any(|&f| f >= b) {
            return false;
        }
        // Pass 2: the same products, added where each fix-up is live.
        let end = stops[1..].iter().copied().max().unwrap_or(0);
        let y = data.as_mut_ptr();
        let mut v = seed;
        let mut t = 0;
        while t < end {
            let g = load_steps(gates.as_ptr(), b, t);
            let mut vs = [_mm512_setzero_ps(); L];
            for (i, (vi, gi)) in vs.iter_mut().zip(&g).enumerate() {
                // Lanes whose fix-up has stopped multiply nothing (a
                // masked-off lane takes no assist) and add nothing.
                let live = _mm512_cmpgt_epi32_mask(stop, _mm512_set1_epi32((t + i) as i32));
                v = _mm512_maskz_mul_ps(live, v, *gi);
                *vi = v;
            }
            transpose16(&mut vs);
            for (j, row) in vs.iter().enumerate().skip(1) {
                let live = stops[j].saturating_sub(t).min(L);
                if live > 0 {
                    let mask = (u32::MAX >> (32 - live)) as __mmask16;
                    let p = y.add(j * b + t);
                    _mm512_mask_storeu_ps(p, mask, _mm512_add_ps(_mm512_loadu_ps(p), *row));
                }
            }
            t += L;
        }
        if stops[L - 1] >= b {
            // The last fix-up is live past its sub-block: it continues
            // over the elements past the body, one at a time.
            let mut fin = [0f32; L];
            _mm512_storeu_ps(fin.as_mut_ptr(), v);
            let mut v = fin[L - 1];
            for (y, &a) in data[L * b..].iter_mut().zip(&gates[L * b..]) {
                v *= a;
                if v.abs() < f32::MIN_POSITIVE {
                    break;
                }
                *y += v;
            }
        }
        true
    }

    /// AVX-512VL+DQ native wrapping 64-bit lane multiply.
    #[inline]
    #[target_feature(enable = "avx512dq,avx512vl")]
    unsafe fn mul_epi64_avx512(a: __m256i, b: __m256i) -> __m256i {
        _mm256_mullo_epi64(a, b)
    }

    /// Broadcasts 64-bit lane `lane` of `v` to every lane (runtime lane
    /// index — `vpermpd` takes only immediates, `vpermd` takes a vector).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bcast_lane64(v: __m256i, lane: usize) -> __m256i {
        let base = _mm256_setr_epi32(0, 1, 0, 1, 0, 1, 0, 1);
        let idx = _mm256_add_epi32(_mm256_set1_epi32((2 * lane) as i32), base);
        _mm256_permutevar8x32_epi32(v, idx)
    }

    /// Broadcasts 32-bit lane `lane` of `v` to every lane.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bcast_lane32(v: __m256i, lane: usize) -> __m256i {
        _mm256_permutevar8x32_epi32(v, _mm256_set1_epi32(lane as i32))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bcast_lane_pd(v: __m256d, lane: usize) -> __m256d {
        _mm256_castsi256_pd(bcast_lane64(_mm256_castpd_si256(v), lane))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn bcast_lane_ps(v: __m256, lane: usize) -> __m256 {
        _mm256_castsi256_ps(bcast_lane32(_mm256_castps_si256(v), lane))
    }

    /// Generates one local-solve kernel working a full [`BLOCK`] per
    /// step as `V = BLOCK / L` accumulator vectors.
    ///
    /// The triangular FIR is computed as the transposed convolution
    /// `y[i] = Σ_j t[j]·h[i−j]`: each input is broadcast once and
    /// multiply-added against a shifted unaligned window of `hpad`, the
    /// table `h` padded with `BLOCK−1` leading zeros (negative indices
    /// read zero). `hpad` is written once per call and only read in the
    /// loop, so — unlike a per-block staging copy — the loads never
    /// collide with an in-flight store. The carry fold is the only
    /// cross-block dependency, and its chain stays in registers: the
    /// next block's carry broadcasts are lane permutes of the top
    /// accumulator; the scalar `carries` array is materialized once
    /// after the loop.
    ///
    /// `h` is the impulse response for a plain solve (`NP = 0`) and the
    /// combined table `f ⊛ h` for a map + solve, whose `NP = p − 1`
    /// `cross` rows weigh the previous block's last raw inputs (`raw`,
    /// most recent first). Those are read off the block before its
    /// outputs overwrite it, and added farthest first.
    macro_rules! float_solve {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident, $zero:ident, $bcast:ident) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name<const NP: usize>(
                table: &[$elem; BLOCK],
                factors: &[[$elem; BLOCK]],
                k: usize,
                carries: &mut [$elem; 4],
                cross: &[[$elem; BLOCK]],
                raw: &mut [$elem; 3],
                data: &mut [$elem],
            ) -> usize {
                const L: usize = $lanes;
                const V: usize = BLOCK / L;
                let nblocks = data.len() / BLOCK;
                if nblocks == 0 {
                    return 0;
                }
                let mut hpad = [0 as $elem; 2 * BLOCK - 1];
                hpad[BLOCK - 1..].copy_from_slice(table);
                let hp = hpad.as_ptr().add(BLOCK - 1); // &h[0]
                let mut f = [[$zero(); V]; 4];
                for r in 0..k {
                    for m in 0..V {
                        f[r][m] = $loadu(factors[r].as_ptr().add(m * L));
                    }
                }
                let mut e = [[$zero(); V]; NP];
                for s in 0..NP {
                    for m in 0..V {
                        e[s][m] = $loadu(cross[s].as_ptr().add(m * L));
                    }
                }
                let mut prev = [0 as $elem; NP];
                prev.copy_from_slice(&raw[..NP]);
                // Seed the register-resident carry vector: lane L-1-r
                // is where block outputs leave carry r.
                let mut seed = [0 as $elem; L];
                for r in 0..k {
                    seed[L - 1 - r] = carries[r];
                }
                let mut top = $loadu(seed.as_ptr());
                for b in 0..nblocks {
                    let ptr = data.as_mut_ptr().add(b * BLOCK);
                    prefetch_ahead(ptr, BLOCK * size_of::<$elem>());
                    let mut acc = [$zero(); V];
                    for s in (0..NP).rev() {
                        let t = $set1(prev[s]);
                        for m in 0..V {
                            acc[m] = $fmadd(e[s][m], t, acc[m]);
                        }
                    }
                    for j in 0..BLOCK {
                        let t = $set1(*ptr.add(j));
                        for m in (j / L)..V {
                            acc[m] = $fmadd(t, $loadu(hp.add(m * L).sub(j)), acc[m]);
                        }
                    }
                    for s in 0..NP {
                        prev[s] = *ptr.add(BLOCK - 1 - s);
                    }
                    for r in 0..k {
                        let c = $bcast(top, L - 1 - r);
                        for m in 0..V {
                            acc[m] = $fmadd(f[r][m], c, acc[m]);
                        }
                    }
                    for m in 0..V {
                        $storeu(ptr.add(m * L), acc[m]);
                    }
                    top = acc[V - 1];
                }
                let mut fin = [0 as $elem; L];
                $storeu(fin.as_mut_ptr(), top);
                for r in 0..k {
                    carries[r] = fin[L - 1 - r];
                }
                raw[..NP].copy_from_slice(&prev);
                nblocks * BLOCK
            }
        };
    }

    /// Integer counterpart of [`float_solve`]: wrapping add/mul lanes,
    /// `si256` loads, multiply supplied per ISA.
    macro_rules! int_solve {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $set1:ident, $add:ident, $mul:path, $bcast:ident) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name<const NP: usize>(
                table: &[$elem; BLOCK],
                factors: &[[$elem; BLOCK]],
                k: usize,
                carries: &mut [$elem; 4],
                cross: &[[$elem; BLOCK]],
                raw: &mut [$elem; 3],
                data: &mut [$elem],
            ) -> usize {
                const L: usize = $lanes;
                const V: usize = BLOCK / L;
                let nblocks = data.len() / BLOCK;
                if nblocks == 0 {
                    return 0;
                }
                let mut hpad = [0 as $elem; 2 * BLOCK - 1];
                hpad[BLOCK - 1..].copy_from_slice(table);
                let hp = hpad.as_ptr().add(BLOCK - 1); // &h[0]
                let mut f = [[_mm256_setzero_si256(); V]; 4];
                for r in 0..k {
                    for m in 0..V {
                        f[r][m] =
                            _mm256_loadu_si256(factors[r].as_ptr().add(m * L) as *const __m256i);
                    }
                }
                let mut e = [[_mm256_setzero_si256(); V]; NP];
                for s in 0..NP {
                    for m in 0..V {
                        e[s][m] =
                            _mm256_loadu_si256(cross[s].as_ptr().add(m * L) as *const __m256i);
                    }
                }
                let mut prev = [0 as $elem; NP];
                prev.copy_from_slice(&raw[..NP]);
                let mut seed = [0 as $elem; L];
                for r in 0..k {
                    seed[L - 1 - r] = carries[r];
                }
                let mut top = _mm256_loadu_si256(seed.as_ptr() as *const __m256i);
                for b in 0..nblocks {
                    let ptr = data.as_mut_ptr().add(b * BLOCK);
                    prefetch_ahead(ptr, BLOCK * size_of::<$elem>());
                    let mut acc = [_mm256_setzero_si256(); V];
                    for s in (0..NP).rev() {
                        let t = $set1(prev[s]);
                        for m in 0..V {
                            acc[m] = $add(acc[m], $mul(e[s][m], t));
                        }
                    }
                    for j in 0..BLOCK {
                        let t = $set1(*ptr.add(j));
                        for m in (j / L)..V {
                            let x = _mm256_loadu_si256(hp.add(m * L).sub(j) as *const __m256i);
                            acc[m] = $add(acc[m], $mul(t, x));
                        }
                    }
                    for s in 0..NP {
                        prev[s] = *ptr.add(BLOCK - 1 - s);
                    }
                    for r in 0..k {
                        let c = $bcast(top, L - 1 - r);
                        for m in 0..V {
                            acc[m] = $add(acc[m], $mul(f[r][m], c));
                        }
                    }
                    for m in 0..V {
                        _mm256_storeu_si256(ptr.add(m * L) as *mut __m256i, acc[m]);
                    }
                    top = acc[V - 1];
                }
                let mut fin = [0 as $elem; L];
                _mm256_storeu_si256(fin.as_mut_ptr() as *mut __m256i, top);
                for r in 0..k {
                    carries[r] = fin[L - 1 - r];
                }
                raw[..NP].copy_from_slice(&prev);
                nblocks * BLOCK
            }
        };
    }

    /// Steady-state FIR map: descending `L`-wide windows from the top of
    /// the chunk (loads precede the window's store, and lower windows
    /// are untouched original input), scalar low remainder left to the
    /// caller. Returns elements processed.
    macro_rules! float_fir {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $loadu:ident, $storeu:ident, $set1:ident, $mul:ident, $fmadd:ident, $zero:ident) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(fir: &[$elem], chunk: &mut [$elem], head: usize) -> usize {
                const L: usize = $lanes;
                let p = fir.len();
                let n = chunk.len();
                let vecs = (n - head) / L;
                if vecs == 0 {
                    return 0;
                }
                let mut taps = [$zero(); 4];
                for (j, t) in taps.iter_mut().enumerate().take(p) {
                    *t = $set1(fir[j]);
                }
                let base = chunk.as_mut_ptr();
                for v in 0..vecs {
                    let i0 = n - L * (v + 1);
                    let mut acc = $mul(taps[0], $loadu(base.add(i0)));
                    for j in 1..p {
                        acc = $fmadd(taps[j], $loadu(base.add(i0 - j)), acc);
                    }
                    $storeu(base.add(i0), acc);
                }
                vecs * L
            }
        };
    }

    /// Integer counterpart of [`float_fir`].
    macro_rules! int_fir {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $set1:ident, $add:ident, $mul:path) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(fir: &[$elem], chunk: &mut [$elem], head: usize) -> usize {
                const L: usize = $lanes;
                let p = fir.len();
                let n = chunk.len();
                let vecs = (n - head) / L;
                if vecs == 0 {
                    return 0;
                }
                let mut taps = [_mm256_setzero_si256(); 4];
                for (j, t) in taps.iter_mut().enumerate().take(p) {
                    *t = $set1(fir[j]);
                }
                let base = chunk.as_mut_ptr();
                for v in 0..vecs {
                    let i0 = n - L * (v + 1);
                    let mut acc = $mul(taps[0], _mm256_loadu_si256(base.add(i0) as *const __m256i));
                    for j in 1..p {
                        let x = _mm256_loadu_si256(base.add(i0 - j) as *const __m256i);
                        acc = $add(acc, $mul(taps[j], x));
                    }
                    _mm256_storeu_si256(base.add(i0) as *mut __m256i, acc);
                }
                vecs * L
            }
        };
    }

    /// Correction fold `dst[i] += list[i]·c` over the low vector prefix;
    /// returns elements processed (caller finishes the remainder).
    macro_rules! float_axpy {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $loadu:ident, $storeu:ident, $set1:ident, $fmadd:ident) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(dst: &mut [$elem], list: &[$elem], c: $elem) -> usize {
                const L: usize = $lanes;
                let n = dst.len().min(list.len());
                let vecs = n / L;
                let cv = $set1(c);
                let d = dst.as_mut_ptr();
                let l = list.as_ptr();
                for v in 0..vecs {
                    let i = v * L;
                    let acc = $fmadd($loadu(l.add(i)), cv, $loadu(d.add(i)));
                    $storeu(d.add(i), acc);
                }
                vecs * L
            }
        };
    }

    /// Integer counterpart of [`float_axpy`].
    macro_rules! int_axpy {
        ($name:ident, $feat:literal, $elem:ty, $lanes:expr,
         $set1:ident, $add:ident, $mul:path) => {
            #[target_feature(enable = $feat)]
            pub(super) unsafe fn $name(dst: &mut [$elem], list: &[$elem], c: $elem) -> usize {
                const L: usize = $lanes;
                let n = dst.len().min(list.len());
                let vecs = n / L;
                let cv = $set1(c);
                let d = dst.as_mut_ptr();
                let l = list.as_ptr();
                for v in 0..vecs {
                    let i = v * L;
                    let x = _mm256_loadu_si256(l.add(i) as *const __m256i);
                    let acc = $add(_mm256_loadu_si256(d.add(i) as *const __m256i), $mul(x, cv));
                    _mm256_storeu_si256(d.add(i) as *mut __m256i, acc);
                }
                vecs * L
            }
        };
    }

    float_solve!(
        solve_f64_avx2,
        "avx2,fma",
        f64,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd,
        _mm256_setzero_pd,
        bcast_lane_pd
    );
    float_solve!(
        solve_f32_avx2,
        "avx2,fma",
        f32,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps,
        _mm256_setzero_ps,
        bcast_lane_ps
    );
    int_solve!(
        solve_i32_avx2,
        "avx2",
        i32,
        8,
        _mm256_set1_epi32,
        _mm256_add_epi32,
        _mm256_mullo_epi32,
        bcast_lane32
    );
    int_solve!(
        solve_i64_avx512,
        "avx2,avx512dq,avx512vl",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx512,
        bcast_lane64
    );

    float_fir!(
        fir_steady_f64_avx2,
        "avx2,fma",
        f64,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_mul_pd,
        _mm256_fmadd_pd,
        _mm256_setzero_pd
    );
    float_fir!(
        fir_steady_f32_avx2,
        "avx2,fma",
        f32,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_mul_ps,
        _mm256_fmadd_ps,
        _mm256_setzero_ps
    );
    int_fir!(
        fir_steady_i32_avx2,
        "avx2",
        i32,
        8,
        _mm256_set1_epi32,
        _mm256_add_epi32,
        _mm256_mullo_epi32
    );
    int_fir!(
        fir_steady_i64_avx512,
        "avx2,avx512dq,avx512vl",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx512
    );

    float_axpy!(
        axpy_f64_avx2,
        "avx2,fma",
        f64,
        4,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_fmadd_pd
    );
    float_axpy!(
        axpy_f32_avx2,
        "avx2,fma",
        f32,
        8,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_fmadd_ps
    );
    int_axpy!(
        axpy_i32_avx2,
        "avx2",
        i32,
        8,
        _mm256_set1_epi32,
        _mm256_add_epi32,
        _mm256_mullo_epi32
    );
    int_axpy!(
        axpy_i64_avx512,
        "avx2,avx512dq,avx512vl",
        i64,
        4,
        _mm256_set1_epi64x,
        _mm256_add_epi64,
        mul_epi64_avx512
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_support_is_the_four_builtins() {
        assert!(supported::<f32>() && supported::<f64>());
        assert!(supported::<i32>() && supported::<i64>());
        assert!(!supported::<crate::tropical::MaxPlus>());
        assert!(best_isa::<crate::tropical::MaxPlus>().is_none());
    }

    #[test]
    fn map_solve_runs_where_the_isa_exists() {
        let mut data = vec![1.0f64; 40];
        let out = map_solve_ungated(&[0.5, 0.5], &[0.8], &[], &[], &mut data, &mut || true);
        assert_eq!(out.is_some(), best_isa::<f64>().is_some());
        // Five taps, or an order past the blocked cap, take two passes.
        assert!(map_solve_ungated(&[1.0; 5], &[0.8], &[], &[], &mut data, &mut || true).is_none());
        let high = [0.1f64; MAX_BLOCKED_ORDER + 1];
        assert!(map_solve_ungated(&[0.5], &high, &[], &[], &mut data, &mut || true).is_none());
    }

    #[test]
    fn unsupported_isa_is_rejected_at_construction() {
        // MaxPlus has no explicit kernels on any ISA.
        use crate::tropical::MaxPlus;
        assert!(SimdKernel::try_new(&[MaxPlus::new(1.0)]).is_none());
        // Order above the blocked cap is rejected for supported types.
        assert!(SimdKernel::try_new(&[1.0f64; MAX_BLOCKED_ORDER + 1]).is_none());
    }
}
